package repro.core

import scala.collection.mutable

/** Φ as [[ThresholdCandidates]] moves it, but with one private, mutable
  * [[CandidateState]] per candidate, as the threshold algorithms held them
  * before candidates shared states: the reference that MTTS and
  * SieveStreaming are compared against.
  */
final class UnsharedCandidates(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double) {
  private val phis = new ThresholdCandidates(engine, q, k, epsilon, ThresholdCandidates.ReachesTau)
  // φ_j = (1+ε)^j names candidate j for as long as it stays in Φ.
  private val byPhi = mutable.HashMap.empty[Double, CandidateState]

  def size: Int = phis.size
  def phi(i: Int): Double = phis.phi(i)
  def tau(i: Int): Double = phis.tau(i)
  def raise(delta: Double): Unit = phis.raise(delta)
  def state(i: Int): CandidateState = byPhi.getOrElseUpdate(phis.phi(i), new CandidateState(engine, q))

  def best(evaluated: Int): KSirResult = (0 until size).map(state).maxByOption(_.score) match {
    case Some(s) => KSirResult(s.members, s.score, evaluated, evaluated)
    case None    => KSirResult(Seq.empty, 0.0, evaluated, evaluated)
  }
}
