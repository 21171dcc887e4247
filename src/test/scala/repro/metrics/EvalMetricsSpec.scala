package repro.metrics

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}

/** Table 5/6 metric implementations, checked by hand and against the DuckDB oracle. */
class EvalMetricsSpec extends SparkSpec {

  private lazy val g = SocialStreamGen.generate(
    StreamConfig("metrics", 120, 150, 5, 5, 1.2, 800, 800, seed = 41L))
  private lazy val engine: KSirEngine = {
    val e = new KSirEngine(g.model, 800, 0.5, 5.0)
    Bucket.bucketize(g.elements, 800, 800).foreach(e.advance)
    e
  }
  private lazy val q = QueryVector(0 -> 0.5, 1 -> 0.5)
  private lazy val s: Seq[Long] = MTTD.query(engine, q, 5, 0.1).elements

  test("referrerCount counts active elements referring into S") {
    val eng = PaperExample.engineAt(8)
    // S = {e2}: referred by e7 and e8 among active elements.
    assert(EvalMetrics.referrerCount(eng, Set(2L)) == 2)
    // S = {e3}: e4 expired, so referrers among actives are e6, e8.
    assert(EvalMetrics.referrerCount(eng, Set(3L)) == 2)
    assert(EvalMetrics.referrerCount(eng, Set(2L, 3L)) == 3) // e6, e7, e8
  }

  test("referrerCount: DuckDB oracle agrees on the synthetic stream") {
    import spark.implicits._
    val refsDf = engine.activeElements
      .flatMap(ae => ae.elem.refs.map(r => (ae.elem.id, r)))
      .toSeq.toDF("elem", "ref")
    val sDf = s.map(Tuple1(_)).toDF("sid")
    val localCount = EvalMetrics.referrerCount(engine, s.toSet)
    val countDf = Seq(Tuple1(localCount.toLong)).toDF("referrers")
    Oracle.assertEquivalent(
      countDf,
      """SELECT COUNT(DISTINCT elem) AS referrers
        |FROM refs WHERE CAST(ref AS BIGINT) IN (SELECT CAST(sid AS BIGINT) FROM sdf)""".stripMargin,
      "refs" -> refsDf, "sdf" -> sDf,
    )
  }

  test("influence is 1.0 for the top-k most-referred set itself") {
    val topK = engine.activeElements.toSeq
      .sortBy(ae => (-ae.childCount, ae.elem.id)).take(5).map(_.elem.id)
    val v = EvalMetrics.influence(engine, topK, 5)
    assert(math.abs(v - 1.0) < 1e-12)
  }

  test("influence is in [0, ~1] and 0 for an un-referred set") {
    val unreferred = engine.activeElements.filter(_.childCount == 0).map(_.elem.id).take(5).toSeq
    if (unreferred.nonEmpty) assert(EvalMetrics.influence(engine, unreferred, 5) == 0.0)
    val v = EvalMetrics.influence(engine, s, 5)
    assert(v >= 0.0)
  }

  test("rankScores maps the best method to the highest score") {
    val vals = Seq(
      Map("a" -> 0.9, "b" -> 0.5, "c" -> 0.1),
      Map("a" -> 0.8, "b" -> 0.6, "c" -> 0.2),
    )
    val r = EvalMetrics.rankScores(vals)
    assert(r("a") == 3.0 && r("b") == 2.0 && r("c") == 1.0)
  }

  test("rankScores averages tied values") {
    val r = EvalMetrics.rankScores(Seq(Map("a" -> 0.5, "b" -> 0.5)))
    assert(r("a") == 1.5 && r("b") == 1.5)
  }

  test("rankScores averages across queries") {
    val r = EvalMetrics.rankScores(Seq(
      Map("a" -> 1.0, "b" -> 0.0),
      Map("a" -> 0.0, "b" -> 1.0),
    ))
    assert(r("a") == 1.5 && r("b") == 1.5)
  }

  test("rankScores rejects empty input") {
    intercept[IllegalArgumentException](EvalMetrics.rankScores(Seq.empty))
  }
}
