package repro.metrics

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}
import org.apache.spark.sql.functions._

/** Table 5/6 metric implementations: Spark vs local vs DuckDB oracle. */
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

  private lazy val activesDF = {
    import spark.implicits._
    engine.activeElements.flatMap(ae => ae.elem.topics.toSeq.map { case (t, p) => (ae.elem.id, t, p) })
      .toSeq.toDF("elem", "topic", "p").cache()
  }

  test("coverage: Spark num/den matches the local computation") {
    val row = EvalMetrics.coverageDF(spark, activesDF, s, q).collect().head
    val sparkCov = if (row.getDouble(1) == 0) 0.0 else row.getDouble(0) / row.getDouble(1)
    val localCov = EvalMetrics.coverageLocal(engine, s, q)
    assert(math.abs(sparkCov - localCov) < 1e-9, s"spark=$sparkCov local=$localCov")
  }

  test("coverage: Spark vs DuckDB oracle") {
    import spark.implicits._
    val sDf = s.map(Tuple1(_)).toDF("sid")
    val qDf = q.entries.toSeq.toDF("topic", "x")
    val qNorm = math.sqrt(q.entries.v.map(x => x * x).sum)
    val df = EvalMetrics.coverageDF(spark, activesDF, s, q)
    Oracle.assertEquivalent(
      df,
      s"""WITH a AS (SELECT CAST(elem AS BIGINT) elem, CAST(topic AS INT) topic, CAST(p AS DOUBLE) p FROM actives),
         |sids AS (SELECT CAST(sid AS BIGINT) sid FROM sdf),
         |norms AS (SELECT elem, SQRT(SUM(p*p)) AS norm FROM a GROUP BY elem),
         |rest AS (SELECT * FROM a WHERE elem NOT IN (SELECT sid FROM sids)),
         |rel AS (
         |  SELECT r.elem AS elem, SUM(r.p * CAST(qv.x AS DOUBLE)) / (MAX(n.norm) * $qNorm) AS rel
         |  FROM rest r
         |  JOIN qdf qv ON CAST(qv.topic AS INT) = r.topic
         |  JOIN norms n ON n.elem = r.elem
         |  GROUP BY r.elem),
         |dots AS (
         |  SELECT r.elem AS elem, sa.elem AS selem, SUM(r.p * sa.p) AS dot
         |  FROM rest r
         |  JOIN a sa ON sa.topic = r.topic
         |  WHERE sa.elem IN (SELECT sid FROM sids)
         |  GROUP BY r.elem, sa.elem),
         |sim AS (
         |  SELECT d.elem AS elem, MAX(d.dot / (n.norm * sn.norm)) AS best
         |  FROM dots d
         |  JOIN norms n ON n.elem = d.elem
         |  JOIN norms sn ON sn.elem = d.selem
         |  GROUP BY d.elem)
         |SELECT SUM(rel.rel * COALESCE(sim.best, 0)) AS num, SUM(rel.rel) AS den
         |FROM rel LEFT JOIN sim ON sim.elem = rel.elem
         |""".stripMargin,
      "actives" -> activesDF, "sdf" -> sDf, "qdf" -> qDf,
    )
  }

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

  test("coverageLocal of an empty set is 0") {
    assert(EvalMetrics.coverageLocal(engine, Seq.empty, q) == 0.0)
  }

  test("coverage increases with a second complementary element") {
    // Adding an element can only help max_{e'∈S} sim — on a fixed denominator
    // minus the moved element. Check the typical case on the MTTD result.
    val one = EvalMetrics.coverageLocal(engine, s.take(1), q)
    val all = EvalMetrics.coverageLocal(engine, s, q)
    assert(all >= one * 0.8, s"one=$one all=$all") // generous: denominators differ
  }
}
