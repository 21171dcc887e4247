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

  /** Candidate S_j with its admission threshold τ_j = φ_j / 2k. */
  private final class Candidate(val tau: Double, val state: CandidateState)

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val cursor = new RankedListCursor(engine, q)
    val logBase = math.log1p(epsilon)
    // Candidates for φ_j = (1+ε)^j, in ascending j from jLo.
    var candidates = new Array[Candidate](0)
    var jLo = 0
    var deltaMax = 0.0
    var evaluated = 0

    def threshold: Double = {
      // TH: min τ_j over unfilled candidates; +∞ when every candidate is
      // full (no further element can be admitted anywhere).
      if (candidates.isEmpty) 0.0
      else {
        var th = Double.PositiveInfinity
        var i = 0
        while (i < candidates.length) {
          val c = candidates(i)
          if (c.state.size < k && c.tau < th) th = c.tau
          i += 1
        }
        th
      }
    }

    var ub = cursor.upperBound
    var th = 0.0
    while (ub >= th && !cursor.exhausted && ub > 0.0) {
      val ae = cursor.popMax()
      if (ae != null) {
        evaluated += 1
        val deltaE = engine.deltaScore(ae, q)
        if (deltaE > deltaMax) {
          deltaMax = deltaE
          // Maintain Φ = { (1+ε)^j : δmax ≤ (1+ε)^j ≤ 2·k·δmax }, keeping
          // the candidates already open inside the new range.
          val lo = math.ceil(math.log(deltaMax) / logBase - 1e-9).toInt
          val hi = math.floor(math.log(2.0 * k * deltaMax) / logBase + 1e-9).toInt
          val next = new Array[Candidate](math.max(0, hi - lo + 1))
          var j = lo
          while (j <= hi) {
            val old = j - jLo
            next(j - lo) =
              if (old >= 0 && old < candidates.length) candidates(old)
              else new Candidate(math.pow(1.0 + epsilon, j) / (2.0 * k), new CandidateState(engine, q))
            j += 1
          }
          candidates = next
          jLo = lo
        }
        var i = 0
        while (i < candidates.length) {
          val c = candidates(i)
          if (deltaE >= c.tau && c.state.size < k && c.state.gain(ae) >= c.tau) c.state.add(ae)
          i += 1
        }
      }
      th = threshold
      ub = cursor.upperBound
    }

    candidates.maxByOption(_.state.score) match {
      case Some(c) => KSirResult(c.state.members, c.state.score, evaluated, cursor.retrievedCount)
      case None    => KSirResult(Seq.empty, 0.0, evaluated, cursor.retrievedCount)
    }
  }
}
