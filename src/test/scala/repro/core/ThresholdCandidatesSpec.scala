package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The Φ = {(1+ε)^j} candidate sets shared by MTTS and SieveStreaming. */
class ThresholdCandidatesSpec extends AnyFunSuite {

  private val model = new TopicModel(1, 2, Array(Array(0.5, 0.5)))

  /** Elements 1 and 2 are identical apart from their ids; 3 has other words. */
  private def engine: KSirEngine = {
    val eng = new KSirEngine(model, 10, 0.5, 1.0)
    eng.advance(Bucket(1, Seq(1L, 2L).map(id => Element(id, 1, Array(0), Array.empty, SparseVec(0 -> 1.0))) :+
      Element(3, 1, Array(1), Array.empty, SparseVec(0 -> 1.0))))
    eng
  }

  test("raise opens Φ between δmax and 2k·δmax and keeps the candidates still inside it") {
    val c = new ThresholdCandidates(engine, QueryVector(0 -> 1.0), k = 2, epsilon = 0.1)
    assert(c.size == 0)
    c.raise(1.0) // j = 0 .. 14: 1.1^14 ≈ 3.80 ≤ 4 < 1.1^15
    assert(c.size == 15)
    assert((0 until c.size).forall(i => c.phi(i) == math.pow(1.1, i) && c.tau(i) == math.pow(1.1, i) / 4.0))
    val j5 = c.state(5)
    c.raise(0.5) // not a new maximum
    assert(c.size == 15 && (c.state(5) eq j5))
    c.raise(math.pow(1.1, 3)) // j = 3 .. 17
    assert(c.size == 15 && c.phi(0) == math.pow(1.1, 3) && c.phi(14) == math.pow(1.1, 17))
    assert(c.state(2) eq j5)
    assert((12 until 15).forall(i => c.state(i).size == 0))
  }

  test("best is the first highest-scoring candidate, or the empty answer") {
    val eng = engine
    val c = new ThresholdCandidates(eng, QueryVector(0 -> 1.0), k = 2, epsilon = 0.1)
    assert(c.best(7) == KSirResult(Seq.empty, 0.0, 7, 7))
    c.raise(1.0)
    c.state(3).add(eng.activeElement(2).get)
    c.state(4).add(eng.activeElement(1).get)
    assert(c.state(3).score == c.state(4).score && c.state(3).score > 0.0)
    assert(c.best(7) == KSirResult(Seq(2L), c.state(3).score, 7, 7))
    c.state(6).add(eng.activeElement(1).get)
    c.state(6).add(eng.activeElement(3).get)
    assert(c.best(7).elements == Seq(1L, 3L))
  }
}
