package repro.core

/** The candidate sets of the threshold algorithms (MTTS and SieveStreaming,
  * Badanidiyuru et al., KDD'14): one set S_j per guess φ_j = (1+ε)^j of OPT in
  * Φ = { φ_j : δmax ≤ φ_j ≤ 2k·δmax }, where δmax is the largest singleton
  * score seen so far. Candidates are held in ascending j; how an element is
  * admitted to a candidate is the caller's rule.
  */
final class ThresholdCandidates(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double) {

  private val logBase = math.log1p(epsilon)
  private var jLo = 0
  private var deltaMax = 0.0
  private var phis = new Array[Double](0)
  private var taus = new Array[Double](0)
  private var states = new Array[CandidateState](0)

  /** Number of open candidates |Φ|. */
  def size: Int = states.length

  /** φ_j, τ_j = φ_j / 2k and S_j of the candidate at position `i`. */
  def phi(i: Int): Double = phis(i)
  def tau(i: Int): Double = taus(i)
  def state(i: Int): CandidateState = states(i)

  /** On a new δmax = `delta`, moves Φ to the new range, keeping the candidates
    * still inside it and opening empty ones for the new guesses.
    */
  def raise(delta: Double): Unit = if (delta > deltaMax) {
    deltaMax = delta
    val lo = math.ceil(math.log(deltaMax) / logBase - 1e-9).toInt
    val hi = math.floor(math.log(2.0 * k * deltaMax) / logBase + 1e-9).toInt
    val open = states
    states = Array.tabulate(math.max(0, hi - lo + 1)) { i =>
      val old = lo + i - jLo
      if (old >= 0 && old < open.length) open(old) else new CandidateState(engine, q)
    }
    phis = Array.tabulate(states.length)(i => math.pow(1.0 + epsilon, lo + i))
    taus = phis.map(_ / (2.0 * k))
    jLo = lo
  }

  /** The highest-scoring candidate (the first in j on a tie), or the empty
    * answer, reporting `evaluated` elements as both evaluated and retrieved.
    */
  def best(evaluated: Int): KSirResult = states.maxByOption(_.score) match {
    case Some(s) => KSirResult(s.members, s.score, evaluated, evaluated)
    case None    => KSirResult(Seq.empty, 0.0, evaluated, evaluated)
  }
}
