package repro.baselines

import repro.core._

/** CELF (Leskovec et al., KDD'07): lazy greedy over all active elements.
  * (1 − 1/e)-approximate — the best ratio achievable unless P=NP — and the
  * quality yardstick of the paper's experiments. Evaluates every active
  * element at least once.
  */
object Celf {

  def query(engine: KSirEngine, q: QueryVector, k: Int): KSirResult = {
    require(k >= 1, "k must be at least 1")
    val s = new CandidateState(engine, q)
    val heap = new GainHeap

    // First greedy round: evaluate f({e}, x) from scratch for every active
    // element. CELF has no index: it may NOT read the maintained ranked-list
    // scores (that is exactly the advantage MTTS/MTTD are measured against).
    engine.activeElements.foreach { ae =>
      val d = s.gain(ae)
      if (d > 0.0) heap.enqueue(d, ae)
    }

    while (s.size < k && heap.nonEmpty) {
      val ae = heap.dequeue()
      val g = s.gain(ae)
      // Exact lazy greedy: by submodularity a cached gain bounds the fresh
      // one, so ae is the greedy choice once it beats every cached gain.
      if (heap.isEmpty || g >= heap.headGain) {
        if (g > 0.0) s.add(ae)
      } else {
        heap.enqueue(g, ae)
      }
    }
    KSirResult(s.members, s.score, engine.activeCount, engine.activeCount)
  }
}
