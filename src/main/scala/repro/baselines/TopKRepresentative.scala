package repro.baselines

import repro.core._

/** Top-k Representative: the first k elements of A_t by (δ(e, x) descending,
  * id ascending), retrieved on demand with the threshold algorithm's stop
  * rule: the buffer's head is taken once the cursor's bound falls below it,
  * as MTTD does. Only 1/k-approximate for k-SIR because word/influence
  * overlaps are ignored — the paper compares against it to show plain top-k
  * is not enough.
  */
object TopKRepresentative {

  def query(engine: KSirEngine, q: QueryVector, k: Int): KSirResult = {
    require(k >= 1, "k must be at least 1")
    val cursor = new RankedListCursor(engine, q)
    val s = new CandidateState(engine, q)
    // Retrieved elements with δ(e, x) > 0, keyed by δ(e, x).
    val buffer = new GainHeap

    while (s.size < k && (buffer.nonEmpty || !cursor.exhausted)) {
      if (!cursor.exhausted && (buffer.isEmpty || cursor.upperBound >= buffer.headGain)) {
        val ae = cursor.popMax()
        val d = engine.deltaScore(ae, q)
        if (d > 0.0) buffer.enqueue(d, ae)
      } else s.add(buffer.dequeue())
    }
    KSirResult(s.members, s.score, cursor.retrievedCount, cursor.retrievedCount)
  }
}
