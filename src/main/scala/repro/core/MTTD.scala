package repro.core

/** MULTI-TOPIC THRESHOLDDESCEND (Algorithm 3): a single candidate built over
  * rounds of geometrically descending threshold τ. Elements are retrieved
  * from the ranked lists once their upper bound reaches τ and parked in a
  * buffer E' (a max-heap on cached marginal gains, which are upper bounds by
  * submodularity), from which they may be evaluated again in later rounds.
  *
  * Returns a (1 − 1/e − ε)-approximation (Theorem 3).
  */
object MTTD {

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val cursor = new RankedListCursor(engine, q)
    val s = new CandidateState(engine, q)
    // Buffer E': cached Δ_e upper bounds; lazily refreshed on pop.
    val buffer = new GainHeap

    var tau = cursor.upperBound
    var tauTerm = 0.0

    // retrieve(τ): pull every element whose upper bound still reaches τ.
    def retrieve(t: Double): Unit = {
      while (!cursor.exhausted && cursor.upperBound >= t) {
        val ae = cursor.popMax()
        buffer.enqueue(engine.deltaScore(ae, q), ae)
      }
    }

    // Every buffered element was retrieved once, so the distinct elements
    // evaluated are exactly the retrieved ones.
    def result: KSirResult = KSirResult(s.members, s.score, cursor.retrievedCount, cursor.retrievedCount)

    if (tau <= 0.0) return result

    while (tau >= tauTerm) {
      retrieve(tau)
      // Lazy-greedy pass: admit while some buffered gain may reach τ.
      while (buffer.nonEmpty && buffer.headGain >= tau) {
        val ae = buffer.dequeue()
        val g = s.gain(ae)
        if (g >= tau) {
          s.add(ae)
          if (s.size == k) return result
        } else if (g > 0.0) {
          buffer.enqueue(g, ae)
        }
      }
      tauTerm = s.score * epsilon / k
      tau = (1.0 - epsilon) * tau
      // Nothing left that could ever be admitted at any remaining threshold.
      if (cursor.exhausted && (buffer.isEmpty || buffer.headGain <= tauTerm)) return result
    }
    result
  }
}
