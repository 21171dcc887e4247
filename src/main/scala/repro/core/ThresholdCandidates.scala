package repro.core

/** The candidate sets of the threshold algorithms (MTTS and SieveStreaming,
  * Badanidiyuru et al., KDD'14): one set S_j per guess φ_j = (1+ε)^j of OPT in
  * Φ = { φ_j : δmax ≤ φ_j ≤ 2k·δmax }, where δmax is the largest singleton
  * score seen so far. Candidates are held in ascending j, and each admits an
  * element by `rule`.
  *
  * Candidates whose member sequences are equal hold one shared
  * [[CandidateState]], and each shared state is held by one contiguous run of
  * j (DESIGN §6c). [[offer]] computes one gain per run; the candidates of a run
  * that admit the element form a prefix of it, which takes a copy of the state
  * unless it is the whole run. The least gain that any unfilled candidate
  * admits, the [[floor]], is cached until a raise or an admission.
  */
final class ThresholdCandidates(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double, rule: ThresholdCandidates.Rule) {

  private val logBase = math.log1p(epsilon)
  private var jLo = 0
  private var deltaMax = 0.0
  private var phis = new Array[Double](0)
  private var states = new Array[CandidateState](0)
  private var floorValue = 0.0
  private var floorValid = false

  /** Number of open candidates |Φ|. */
  def size: Int = states.length

  /** φ_j, τ_j = φ_j / 2k and S_j of the candidate at position `i`. */
  def phi(i: Int): Double = phis(i)
  def tau(i: Int): Double = phis(i) / (2.0 * k)
  def state(i: Int): CandidateView = states(i)

  /** The least gain that any unfilled candidate admits: the minimum, over the
    * runs of unfilled candidates, of the rule's threshold at the run's first
    * candidate, where it is least in the run. It is 0 before Φ opens and +∞
    * once every candidate is full.
    */
  def floor: Double = {
    if (!floorValid) {
      var least = if (states.length == 0) 0.0 else Double.PositiveInfinity
      var a = 0
      while (a < states.length) {
        val s = states(a)
        if (s.size < k) least = math.min(least, rule.threshold(phis(a), s, k))
        a = runEnd(a)
      }
      floorValue = least
      floorValid = true
    }
    floorValue
  }

  /** On a new δmax = `delta`, moves Φ to the new range, keeping the candidates
    * still inside it and opening the new guesses, which come above every kept
    * one, on one empty state: the top kept state if it is empty, else a fresh
    * one.
    */
  def raise(delta: Double): Unit = if (delta > deltaMax) {
    deltaMax = delta
    val lo = math.ceil(math.log(deltaMax) / logBase - 1e-9).toInt
    val hi = math.floor(math.log(2.0 * k * deltaMax) / logBase + 1e-9).toInt
    val open = states
    val n = math.max(0, hi - lo + 1)
    val from = math.max(0, lo - jLo)
    val kept = math.max(0, math.min(n, open.length - from))
    states = new Array[CandidateState](n)
    if (kept > 0) System.arraycopy(open, from, states, 0, kept)
    if (kept < n) {
      val empty = if (kept > 0 && states(kept - 1).size == 0) states(kept - 1) else new CandidateState(engine, q)
      java.util.Arrays.fill(states.asInstanceOf[Array[AnyRef]], kept, n, empty)
    }
    phis = Array.tabulate(n)(i => math.pow(1.0 + epsilon, lo + i))
    jLo = lo
    floorValid = false
  }

  /** Offers e to the unfilled candidates, each judging it by the rule on
    * min(Δ(e|S), `bound`), where `bound` is a caller's upper limit on what e
    * may contribute. Nothing is computed unless the rule admits `bound` at the
    * [[floor]], and a run whose first candidate does not admit `bound` is
    * skipped. Per run of candidates sharing a state S it computes Δ(e|S) once.
    * The rule's threshold does not fall as j rises within a run, so the
    * admitting candidates are a prefix of it: e is added to S in place when
    * that prefix is the whole run, and otherwise the prefix moves to a copy of
    * S with e added.
    */
  def offer(ae: ActiveElement, bound: Double): Unit = if (admits(bound, floor)) {
    var a = 0
    while (a < states.length) {
      val s = states(a)
      val b = runEnd(a)
      if (s.size < k && admits(bound, rule.threshold(phis(a), s, k))) {
        val g = math.min(s.gain(ae), bound)
        var p = a
        while (p < b && admits(g, rule.threshold(phis(p), s, k))) p += 1
        if (p == b) s.add(ae)
        else if (p > a) {
          val split = s.copy()
          split.add(ae)
          java.util.Arrays.fill(states.asInstanceOf[Array[AnyRef]], a, p, split)
        }
        if (p > a) floorValid = false
      }
      a = b
    }
  }

  /** The one admission test: a positive gain `g` that reaches `threshold`. */
  private def admits(g: Double, threshold: Double): Boolean = g > 0.0 && g >= threshold

  /** The position after the run of candidates sharing the state at `a`. */
  private def runEnd(a: Int): Int = {
    val s = states(a)
    var b = a + 1
    while (b < states.length && (states(b) eq s)) b += 1
    b
  }

  /** The highest-scoring candidate (the first in j on a tie), or the empty
    * answer, reporting `evaluated` elements as both evaluated and retrieved.
    */
  def best(evaluated: Int): KSirResult = states.maxByOption(_.score) match {
    case Some(s) => KSirResult(s.members, s.score, evaluated, evaluated)
    case None    => KSirResult(Seq.empty, 0.0, evaluated, evaluated)
  }
}

object ThresholdCandidates {

  /** The threshold a positive judged gain g must reach for candidate S_j to
    * admit e. Among candidates that share S, it never falls as φ_j rises.
    */
  sealed abstract class Rule {
    private[core] def threshold(phi: Double, s: CandidateState, k: Int): Double
  }

  /** MTTS: τ_j = φ_j / 2k, which ascends in j. τ_j > 0, so the test g > 0 adds nothing. */
  object ReachesTau extends Rule {
    private[core] def threshold(phi: Double, s: CandidateState, k: Int): Double = phi / (2.0 * k)
  }

  /** SieveStreaming: (φ_j/2 − f(S_j)) / (k − |S_j|), which ascends in j where
    * f(S_j) and |S_j| are the same.
    */
  object Sieve extends Rule {
    private[core] def threshold(phi: Double, s: CandidateState, k: Int): Double =
      (phi / 2.0 - s.score) / (k - s.size)
  }
}
