package repro.spark

import repro.{Oracle, SparkSpec}
import repro.bench.Tables
import repro.core._
import repro.data.{SocialStreamGen, StreamConfig}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The DataFrame score pipeline vs (a) the driver engine and (b) an
  * independent DuckDB SQL derivation via the oracle.
  */
class BatchScoringSpec extends SparkSpec {

  private lazy val g = SocialStreamGen.generate(
    StreamConfig("batch", 150, 200, 6, 6, 1.2, 1000, 1000, seed = 21L))
  private lazy val words = g.elements.flatMap(_.words).toSet
  private lazy val elemWords = BatchScoring.wordsDF(spark, g.elements).cache()
  private lazy val elemTopics = BatchScoring.topicsDF(spark, g.elements).cache()
  private lazy val topicWords = BatchScoring.topicWordDF(spark, g.model, words).cache()

  private lazy val engine: KSirEngine = {
    val e = new KSirEngine(g.model, 1000, 0.5, 5.0)
    Bucket.bucketize(g.elements, 1000, 1000).foreach(e.advance)
    e
  }

  private lazy val refsDF: DataFrame = {
    import spark.implicits._
    g.elements.flatMap(e => e.refs.map(r => (e.id, r, e.ts))).toDF("child", "parent", "childTs")
  }

  test("semantic scores: DataFrame vs DuckDB oracle") {
    val df = BatchScoring.semanticScores(elemWords, elemTopics, topicWords)
    Oracle.assertEquivalent(
      df,
      """SELECT ew.elem AS elem, et.topic AS topic,
        |       SUM(-CAST(ew.freq AS DOUBLE) * CAST(tw.p AS DOUBLE) * CAST(et.p AS DOUBLE)
        |           * LN(CAST(tw.p AS DOUBLE) * CAST(et.p AS DOUBLE))) AS r_score
        |FROM elemwords ew
        |JOIN elemtopics et ON ew.elem = et.elem
        |JOIN topicwords tw ON tw.topic = et.topic AND tw.word = ew.word
        |WHERE CAST(et.p AS DOUBLE) > 0 AND CAST(tw.p AS DOUBLE) > 0
        |GROUP BY ew.elem, et.topic""".stripMargin,
      "elemwords" -> elemWords, "elemtopics" -> elemTopics, "topicwords" -> topicWords,
    )
  }

  test("semantic scores: DataFrame vs driver engine R_i(e)") {
    val rows = BatchScoring.semanticScores(elemWords, elemTopics, topicWords)
      .collect().map(r => ((r.getLong(0), r.getInt(1)), r.getDouble(2))).toMap
    engine.activeElements.foreach { ae =>
      ae.elem.topics.foreach { case (t, _) =>
        val got = rows.getOrElse((ae.elem.id, t), 0.0)
        assert(math.abs(got - ae.semantic(t)) < 1e-9, s"e${ae.elem.id} topic $t")
      }
    }
  }

  test("singleton influence: DataFrame vs DuckDB oracle") {
    val df = BatchScoring.singletonInfluence(refsDF, elemTopics, 1, 1000)
    Oracle.assertEquivalent(
      df,
      """SELECT r.parent AS elem, pt.topic AS topic,
        |       SUM(CAST(pt.p AS DOUBLE) * CAST(ct.p AS DOUBLE)) AS i_score
        |FROM refs r
        |JOIN elemtopics pt ON pt.elem = r.parent
        |JOIN elemtopics ct ON ct.elem = r.child AND ct.topic = pt.topic
        |WHERE CAST(r.childTs AS BIGINT) BETWEEN 1 AND 1000
        |GROUP BY r.parent, pt.topic""".stripMargin,
      "refs" -> refsDF, "elemtopics" -> elemTopics,
    )
  }

  test("singleton influence: DataFrame vs driver engine I_{i,t}(e)") {
    val rows = BatchScoring.singletonInfluence(refsDF, elemTopics, 1, 1000)
      .collect().map(r => ((r.getLong(0), r.getInt(1)), r.getDouble(2))).toMap
    engine.activeElements.foreach { ae =>
      ae.elem.topics.foreach { case (t, _) =>
        val got = rows.getOrElse((ae.elem.id, t), 0.0)
        assert(math.abs(got - ae.influence(t)) < 1e-9, s"e${ae.elem.id} topic $t")
      }
    }
  }

  test("delta scores: DataFrame matches the engine's ranked-list entries") {
    val sem = BatchScoring.semanticScores(elemWords, elemTopics, topicWords)
    val inf = BatchScoring.singletonInfluence(refsDF, elemTopics, 1, 1000)
    val delta = BatchScoring.deltaScores(sem, inf, 0.5, 5.0)
      .collect().map(r => ((r.getLong(0), r.getInt(1)), r.getDouble(2))).toMap
    (0 until g.model.z).foreach { t =>
      engine.rankedList(t).foreach { case (score, id) =>
        val got = delta.getOrElse((id, t), 0.0)
        assert(math.abs(got - score) < 1e-9, s"e$id topic $t: df=$got engine=$score")
      }
    }
  }

  test("datasetStats: DataFrame vs DuckDB oracle") {
    val stream = SocialStreamGen.toDF(spark, g.elements).cache()
    val stats = Tables.datasetStats(stream)
    Oracle.assertEquivalent(
      stats.select(col("elements"), col("avg_length"), col("avg_refs")),
      """SELECT COUNT(*) AS elements,
        |       AVG(CAST(len AS DOUBLE)) AS avg_length,
        |       AVG(CAST(nrefs AS DOUBLE)) AS avg_refs
        |FROM lens""".stripMargin,
      "lens" -> {
        import spark.implicits._
        g.elements.map(e => (e.id, e.words.length, e.refs.length)).toDF("id", "len", "nrefs")
      },
    )
  }

  test("datasetStats vocabulary matches the distinct word count") {
    val stream = SocialStreamGen.toDF(spark, g.elements)
    val vocab = Tables.datasetStats(stream).select("vocab").collect().head.getInt(0)
    assert(vocab == words.size)
  }
}
