package repro.baselines

import repro.core._

/** SieveStreaming (Badanidiyuru et al., KDD'14): one streaming pass over the
  * active elements (in arbitrary order — no ranked lists), maintaining
  * geometric guesses φ of OPT and admitting an element to candidate S_φ when
  * its marginal gain reaches (φ/2 − f(S_φ)) / (k − |S_φ|).
  * (1/2 − ε)-approximate; evaluates every active element once per candidate.
  */
object SieveStreaming {

  /** Candidate S_φ for the guess φ = (1+ε)^j of OPT. */
  private final class Candidate(val phi: Double, val state: CandidateState)

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val logBase = math.log1p(epsilon)
    // Candidates for φ_j = (1+ε)^j, in ascending j from jLo.
    var candidates = new Array[Candidate](0)
    var jLo = 0
    var deltaMax = 0.0
    var evaluated = 0

    // Like CELF, SieveStreaming has no index: singleton scores are computed
    // from scratch, not read from the maintained ranked lists.
    val probe = new CandidateState(engine, q)
    engine.activeElements.foreach { ae =>
      evaluated += 1
      val d = probe.gain(ae)
      if (d > deltaMax) {
        deltaMax = d
        val lo = math.ceil(math.log(deltaMax) / logBase - 1e-9).toInt
        val hi = math.floor(math.log(2.0 * k * deltaMax) / logBase + 1e-9).toInt
        val next = new Array[Candidate](math.max(0, hi - lo + 1))
        var j = lo
        while (j <= hi) {
          val old = j - jLo
          next(j - lo) =
            if (old >= 0 && old < candidates.length) candidates(old)
            else new Candidate(math.pow(1.0 + epsilon, j), new CandidateState(engine, q))
          j += 1
        }
        candidates = next
        jLo = lo
      }
      var i = 0
      while (i < candidates.length) {
        val s = candidates(i).state
        if (s.size < k) {
          val tau = (candidates(i).phi / 2.0 - s.score) / (k - s.size)
          val g = s.gain(ae)
          if (g > 0.0 && g >= tau) s.add(ae)
        }
        i += 1
      }
    }

    candidates.maxByOption(_.state.score) match {
      case Some(c) => KSirResult(c.state.members, c.state.score, evaluated, evaluated)
      case None    => KSirResult(Seq.empty, 0.0, evaluated, evaluated)
    }
  }
}
