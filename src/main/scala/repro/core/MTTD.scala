package repro.core

/** MULTI-TOPIC THRESHOLDDESCEND (Algorithm 3): a single candidate built over
  * rounds of geometrically descending threshold τ, starting from the paper's
  * UB(x). Retrieved elements are parked in a buffer E' (a max-heap on cached
  * marginal gains, which are upper bounds by submodularity), from which they
  * may be evaluated again in later rounds.
  *
  * Elements are retrieved on demand: within a round, the cursor is popped
  * only while its bound reaches both τ and the buffer's head gain, so the
  * buffer's head is evaluated once nothing unretrieved could outrank it.
  * Every evaluation thus sees the head a full retrieval up to τ would show,
  * and the round that fills S stops retrieving at once (DESIGN §6e).
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

    var tau = cursor.paperUpperBound
    var tauTerm = 0.0

    // Every buffered element was retrieved once, so the distinct elements
    // evaluated are exactly the retrieved ones.
    def result: KSirResult = KSirResult(s.members, s.score, cursor.retrievedCount, cursor.retrievedCount)

    if (tau <= 0.0) return result

    var ub = cursor.upperBound
    while (tau >= tauTerm) {
      // One round: retrieve while an unretrieved element may reach τ and
      // outrank the buffer's head; otherwise admit from the buffer while its
      // head gain may reach τ.
      var more = true
      while (more) {
        if (ub >= tau && (buffer.isEmpty || ub >= buffer.headGain) && !cursor.exhausted) {
          val ae = cursor.popMax()
          buffer.enqueue(engine.deltaScore(ae, q), ae)
          ub = cursor.upperBound
        } else if (buffer.nonEmpty && buffer.headGain >= tau) {
          val ae = buffer.dequeue()
          val g = s.gain(ae)
          if (g >= tau) {
            s.add(ae)
            if (s.size == k) return result
          } else if (g > 0.0) {
            buffer.enqueue(g, ae)
          }
        } else more = false
      }
      tauTerm = s.score * epsilon / k
      tau = (1.0 - epsilon) * tau
      // Nothing left that could ever be admitted at any remaining threshold.
      if (cursor.exhausted && (buffer.isEmpty || buffer.headGain <= tauTerm)) return result
    }
    result
  }
}
