package repro.core

/** MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2): threshold-bucket candidates fed
  * from the ranked lists in decreasing order of x-weighted topic score, with
  * early termination once the cursor's upper bound on unretrieved elements
  * (the largest pattern sum over its lists, DESIGN §6e) falls below the minimum
  * admission threshold TH of any unfilled candidate.
  *
  * Returns a (1/2 − ε)-approximation (Theorem 2) and evaluates each active
  * element at most once.
  */
object MTTS {

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val cursor = new RankedListCursor(engine, q)
    // Candidate S_j admits e when δ(e) and Δ(e|S_j) reach τ_j = φ_j / 2k, so
    // e is judged on min(Δ(e|S_j), δ(e)). TH, the least τ_j over unfilled
    // candidates, is their floor: 0 before any candidate opens and +∞ once
    // every candidate is full. An exhausted cursor's bound is 0.
    val candidates = new ThresholdCandidates(engine, q, k, epsilon, ThresholdCandidates.ReachesTau)
    var ub = cursor.upperBound
    while (ub >= candidates.floor && ub > 0.0) {
      val ae = cursor.popMax()
      val deltaE = engine.deltaScore(ae, q)
      candidates.raise(deltaE)
      candidates.offer(ae, deltaE)
      ub = cursor.upperBound
    }

    candidates.best(cursor.retrievedCount)
  }
}
