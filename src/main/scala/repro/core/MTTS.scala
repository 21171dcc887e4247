package repro.core

/** MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2): threshold-bucket candidates fed
  * from the ranked lists in decreasing order of x-weighted topic score, with
  * early termination once the upper bound UB(x) on unretrieved elements falls
  * below the minimum admission threshold TH of any unfilled candidate.
  *
  * Returns a (1/2 − ε)-approximation (Theorem 2) and evaluates each active
  * element at most once.
  */
object MTTS {

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val cursor = new RankedListCursor(engine, q)
    // Candidate S_j admits e when δ(e) and Δ(e|S_j) reach τ_j = φ_j / 2k.
    val candidates = new ThresholdCandidates(engine, q, k, epsilon)

    // Φ is held in ascending τ_j, so no candidate after the first τ_j > δ(e)
    // can admit e, and TH, the least τ_j over unfilled candidates, is the τ
    // of the first unfilled one: 0 before any candidate opens and +∞ once
    // every candidate is full. An exhausted cursor's bound is 0.
    var ub = cursor.upperBound
    var th = 0.0
    while (ub >= th && ub > 0.0) {
      val ae = cursor.popMax()
      val deltaE = engine.deltaScore(ae, q)
      candidates.raise(deltaE)
      var until = 0
      while (until < candidates.size && candidates.tau(until) <= deltaE) until += 1
      candidates.offer(ae, until, ThresholdCandidates.ReachesTau)
      var i = 0
      while (i < candidates.size && candidates.state(i).size >= k) i += 1
      th = if (i < candidates.size) candidates.tau(i) else if (i == 0) 0.0 else Double.PositiveInfinity
      ub = cursor.upperBound
    }

    candidates.best(cursor.retrievedCount)
  }
}
