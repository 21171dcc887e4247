package repro.metrics

import repro.core._

/** The effectiveness metrics of §5.2.
  *
  * - `coverageTfIdf` (Tables 5–6): Σ_{e ∈ A_t∖S} max_{e'∈S} rel(e,x)·sim(e,e'),
  *   normalized by Σ_{e ∈ A_t∖S} rel(e,x) so scores are comparable across
  *   windows (the paper linearly scales its metrics as well). `rel` is the
  *   cosine of an element's topic vector to the query vector; `sim` the
  *   cosine between TF-IDF word vectors.
  * - `influence` (Table 6): the number of active elements referring to at
  *   least one element of S, scaled by the same count for the top-k
  *   most-referred elements (the paper's normalization).
  * - `rankScores` (Table 5): methods ranked 1..5 per query on a metric,
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
  def coverageTfIdf(engine: KSirEngine, idx: repro.baselines.TfIdfIndex, s: Seq[Long], q: QueryVector): Double = {
    val sVecs = s.flatMap(engine.activeElement).map(idx.vectorOf)
    if (sVecs.isEmpty) return 0.0
    var num = 0.0
    var den = 0.0
    engine.activeElements.foreach { ae =>
      if (!s.contains(ae.elem.id)) {
        val rel = ae.elem.topics.cosine(q.entries)
        if (rel > 0) {
          val v = idx.vectorOf(ae)
          num += rel * sVecs.map(v.cosine).maxOption.getOrElse(0.0)
          den += rel
        }
      }
    }
    if (den == 0.0) 0.0 else num / den
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
