package repro.baselines

import repro.core._

/** SieveStreaming (Badanidiyuru et al., KDD'14): one streaming pass over the
  * active elements (in arbitrary order — no ranked lists), maintaining
  * geometric guesses φ of OPT and admitting an element to candidate S_φ when
  * its marginal gain reaches (φ/2 − f(S_φ)) / (k − |S_φ|).
  * (1/2 − ε)-approximate; evaluates an active element once per distinct
  * candidate state that could admit it.
  */
object SieveStreaming {

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val candidates = new ThresholdCandidates(engine, q, k, epsilon, ThresholdCandidates.Sieve)

    // Like CELF, SieveStreaming has no index: singleton scores are computed
    // from scratch, not read from the maintained ranked lists. Δ(e|S) never
    // exceeds Δ(e|∅), bit for bit (DESIGN §6c), so the singleton score bounds
    // every gain and no candidate whose threshold it misses is evaluated.
    val probe = new CandidateState(engine, q)
    engine.activeElements.foreach { ae =>
      val single = probe.gain(ae)
      candidates.raise(single)
      candidates.offer(ae, single)
    }

    candidates.best(engine.activeCount)
  }
}
