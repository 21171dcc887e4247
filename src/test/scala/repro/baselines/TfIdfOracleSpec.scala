package repro.baselines

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{SocialStreamGen, StreamConfig}

/** The TF-IDF weighting (used by the TF-IDF / DIV baselines) checked against
  * an independent DuckDB SQL derivation over the same active window.
  */
class TfIdfOracleSpec extends SparkSpec {

  private lazy val g = SocialStreamGen.generate(
    StreamConfig("tfidf", 120, 150, 5, 6, 1.0, 800, 800, seed = 51L))
  private lazy val engine: KSirEngine = {
    val e = new KSirEngine(g.model, 800, 0.5, 5.0)
    Bucket.bucketize(g.elements, 800, 800).foreach(e.advance)
    e
  }

  test("TF-IDF weights: Scala index vs DuckDB oracle") {
    import spark.implicits._
    val idx = new TfIdfIndex(engine)
    // Flatten the index's element vectors into rows.
    val ours = engine.activeElements.flatMap { ae =>
      idx.vectorOf(ae).toSeq.map { case (w, v) => (ae.elem.id, w, v) }
    }.toSeq.toDF("elem", "word", "weight")
    val wordRows = engine.activeElements.flatMap { ae =>
      ae.elem.wordFreqs.toSeq.map { case (w, f) => (ae.elem.id, w, f.toInt) }
    }.toSeq.toDF("elem", "word", "freq")
    val n = engine.activeCount
    Oracle.assertEquivalent(
      ours,
      s"""WITH w AS (SELECT CAST(elem AS BIGINT) elem, CAST(word AS INT) word, CAST(freq AS DOUBLE) freq FROM words),
         |df AS (SELECT word, COUNT(DISTINCT elem) AS df FROM w GROUP BY word)
         |SELECT w.elem AS elem, w.word AS word,
         |       (1 + LN(w.freq)) * LN($n::DOUBLE / df.df) AS weight
         |FROM w JOIN df ON df.word = w.word
         |WHERE LN($n::DOUBLE / df.df) > 0""".stripMargin,
      "words" -> wordRows,
    )
  }

  test("document frequencies: Scala index vs DuckDB oracle") {
    import spark.implicits._
    val idx = new TfIdfIndex(engine)
    val ours = idx.docFreq.toSeq.map { case (w, c) => (w.toInt, c) }
      .sortBy(_._1).toDF("word", "df")
    val wordRows = engine.activeElements.flatMap { ae =>
      ae.elem.wordFreqs.idx.map(w => (ae.elem.id, w))
    }.toSeq.toDF("elem", "word")
    Oracle.assertEquivalent(
      ours,
      """SELECT CAST(word AS INT) AS word, COUNT(DISTINCT elem) AS df
        |FROM words GROUP BY word""".stripMargin,
      "words" -> wordRows,
    )
  }

  test("query cosine ranking is consistent between TfIdf.query and a recomputation") {
    val idx = new TfIdfIndex(engine)
    val kw = g.elements.head.words.take(3).toSeq
    val res = TfIdf.query(engine, kw, 5)
    val qv = idx.queryVector(kw)
    val expected = engine.activeElements
      .map(ae => (ae.elem.id, idx.vectorOf(ae).cosine(qv)))
      .filter(_._2 > 0).toSeq.sortBy { case (id, s) => (-s, id) }.take(5).map(_._1)
    assert(res == expected)
  }
}
