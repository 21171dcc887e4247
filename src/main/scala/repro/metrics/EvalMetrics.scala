package repro.metrics

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** The effectiveness metrics of §5.2.
  *
  * - `coverage` (Table 6): Σ_{e ∈ A_t∖S} max_{e'∈S} rel(e,x)·sim(e,e'),
  *   normalized by Σ_{e ∈ A_t∖S} rel(e,x) so scores are comparable across
  *   windows (the paper linearly scales its metrics as well). `rel` is the
  *   cosine of an element's topic vector to the query vector; `sim` the
  *   cosine between topic vectors.
  * - `influence` (Table 6): the number of active elements referring to at
  *   least one element of S, scaled by the same count for the top-k
  *   most-referred elements (the paper's normalization).
  * - `userStudyProxy` (Table 5): methods ranked 1..5 per query on a metric,
  *   ranks averaged — the programmatic stand-in for the paper's volunteer
  *   ranking protocol (see DESIGN.md §5).
  */
object EvalMetrics {

  /** Coverage with word-level similarity: rel is the topic-vector cosine to
    * the query, sim(e,e') the TF-IDF cosine between documents — the
    * Lin-Bilmes-style formulation the paper cites for this metric. Used by
    * the Table 5/6 benches; pass the window's [[repro.baselines.TfIdfIndex]]
    * so its vector cache is shared across the methods under comparison.
    */
  def coverageTfIdf(engine: KSirEngine, idx: repro.baselines.TfIdfIndex, s: Seq[Long], q: QueryVector): Double =
    coverage(engine, s, q, idx.vectorOf)

  /** Coverage with topic-vector similarity on both factors — the Spark /
    * DuckDB-checked formulation (see [[coverageDF]]).
    */
  def coverageLocal(engine: KSirEngine, s: Seq[Long], q: QueryVector): Double =
    coverage(engine, s, q, _.elem.topics)

  /** Coverage with sim(e,e') the cosine between the `vec`s of e and e'. */
  private def coverage(engine: KSirEngine, s: Seq[Long], q: QueryVector, vec: ActiveElement => SparseVec): Double = {
    val sVecs = s.flatMap(engine.activeElement).map(vec)
    if (sVecs.isEmpty) return 0.0
    var num = 0.0
    var den = 0.0
    engine.activeElements.foreach { ae =>
      if (!s.contains(ae.elem.id)) {
        val rel = ae.elem.topics.cosine(q.entries)
        if (rel > 0) {
          val v = vec(ae)
          num += rel * sVecs.map(v.cosine).maxOption.getOrElse(0.0)
          den += rel
        }
      }
    }
    if (den == 0.0) 0.0 else num / den
  }

  /** Spark formulation of the coverage metric over exploded topic views:
    * `actives(elem, topic, p)` for A_t and the member list `s`. Returns a
    * single-row DataFrame (num, den) so tests can oracle-check it.
    */
  def coverageDF(spark: SparkSession, actives: DataFrame, s: Seq[Long], q: QueryVector): DataFrame = {
    import spark.implicits._
    val qDf = q.entries.toSeq.toDF("topic", "x")
    val norms = actives.groupBy("elem").agg(sqrt(sum(col("p") * col("p"))) as "norm")
    val qNorm = math.sqrt(q.entries.v.map(x => x * x).sum)
    val rest = actives.where(!col("elem").isin(s: _*))
    val sTopics = actives.where(col("elem").isin(s: _*))
      .select(col("elem") as "selem", col("topic"), col("p") as "sp")
    val sNorms = norms.where(col("elem").isin(s: _*))
      .select(col("elem") as "selem", col("norm") as "snorm")

    val rel = rest
      .join(qDf, "topic")
      .groupBy("elem")
      .agg(sum(col("p") * col("x")) as "dot")
      .join(norms, "elem")
      .select(col("elem"), (col("dot") / (col("norm") * lit(qNorm))) as "rel")

    val sim = rest
      .join(sTopics, "topic")
      .groupBy("elem", "selem")
      .agg(sum(col("p") * col("sp")) as "dot")
      .join(norms, "elem")
      .join(sNorms, "selem")
      .groupBy("elem")
      .agg(max(col("dot") / (col("norm") * col("snorm"))) as "best")

    rel
      .join(sim, Seq("elem"), "left_outer")
      .na.fill(0.0, Seq("best"))
      .agg(sum(col("rel") * col("best")) as "num", sum("rel") as "den")
  }

  /** Number of active elements referring to at least one member of `s`. */
  def referrerCount(engine: KSirEngine, s: Set[Long]): Int =
    engine.activeElements.count(ae => ae.elem.refs.exists(s.contains))

  /** Influence metric: referrers(S) / referrers(top-k most-referred set). */
  def influence(engine: KSirEngine, s: Seq[Long], k: Int): Double = {
    val topK = engine.activeElements.toSeq
      .sortBy(ae => (-ae.childCount, ae.elem.id))
      .take(k)
      .map(_.elem.id)
      .toSet
    val norm = referrerCount(engine, topK)
    if (norm == 0) 0.0 else referrerCount(engine, s.toSet).toDouble / norm
  }

  /** Per-query ranks → 1..m scores (m = #methods, best gets m), averaged
    * across queries: the Table 5 rank-aggregation protocol.
    */
  def rankScores(perQueryValues: Seq[Map[String, Double]]): Map[String, Double] = {
    require(perQueryValues.nonEmpty, "need at least one query")
    val methods = perQueryValues.head.keys.toSeq
    val totals = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
    perQueryValues.foreach { vals =>
      // Ascending sort: position i (0-based) gets score i+1; ties share the
      // mean of their positions, as standard rank statistics do.
      val sorted = methods.sortBy(vals)
      val scores = scala.collection.mutable.Map.empty[String, Double]
      var i = 0
      while (i < sorted.length) {
        var j = i
        while (j + 1 < sorted.length && vals(sorted(j + 1)) == vals(sorted(i))) j += 1
        val avg = (i + j + 2).toDouble / 2.0 // mean of positions i+1..j+1
        (i to j).foreach(p => scores(sorted(p)) = avg)
        i = j + 1
      }
      scores.foreach { case (m, v) => totals(m) += v }
    }
    methods.map(m => m -> totals(m) / perQueryValues.length).toMap
  }
}
