package repro.baselines

import repro.core._
import scala.collection.mutable

/** Diversity-aware Top-k Keyword Query (Chen & Cong, SIGMOD'15), the paper's
  * DIV baseline: greedily build S maximizing
  * `score(q,S) = λ·Σ_{e∈S} rel(q,e) + (1−λ)·div(S)` with λ = 0.3 (the
  * setting the paper copies from [9]), where rel is TF-IDF cosine relevance
  * and div is the average pairwise TF-IDF dissimilarity within S.
  *
  * The greedy step is incremental: the pairwise-dissimilarity sum of the
  * chosen set is cached, so evaluating a candidate costs O(|S|) cosines.
  */
object DivQuery {

  val Lambda = 0.3

  def query(engine: KSirEngine, keywords: Seq[Int], k: Int): Seq[Long] = {
    val idx = new TfIdfIndex(engine)
    val qv = idx.queryVector(keywords)
    // Restrict to elements with positive relevance (as a pub/sub system would).
    val cands = engine.activeElements.map { ae =>
      val v = idx.vectorOf(ae)
      (ae.elem.id, v, v.cosine(qv))
    }.filter(_._3 > 0).toArray.sortBy(_._1)

    val chosen = mutable.ArrayBuffer.empty[(Long, SparseVec, Double)]
    var relSum = 0.0
    var disSum = 0.0 // Σ pairwise (1 − sim) within chosen

    while (chosen.length < k && chosen.length < cands.length) {
      var best: (Long, SparseVec, Double) = null
      var bestScore = Double.NegativeInfinity
      val m = chosen.length + 1
      val nPairs = m * (m - 1) / 2
      cands.foreach { c =>
        if (!chosen.exists(_._1 == c._1)) {
          var added = 0.0
          chosen.foreach(ch => added += 1.0 - ch._2.cosine(c._2))
          val div = if (nPairs == 0) 0.0 else (disSum + added) / nPairs
          val score = Lambda * (relSum + c._3) + (1 - Lambda) * div
          if (score > bestScore) { bestScore = score; best = c }
        }
      }
      if (best == null) return chosen.map(_._1).toSeq
      chosen.foreach(ch => disSum += 1.0 - ch._2.cosine(best._2))
      relSum += best._3
      chosen += best
    }
    chosen.map(_._1).toSeq
  }
}
