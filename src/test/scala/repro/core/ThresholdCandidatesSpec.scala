package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{SocialStreamGen, StreamConfig}

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
    val c = new ThresholdCandidates(engine, QueryVector(0 -> 1.0), k = 2, epsilon = 0.1, ThresholdCandidates.ReachesTau)
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
    val c = new ThresholdCandidates(eng, QueryVector(0 -> 1.0), k = 2, epsilon = 0.1, ThresholdCandidates.ReachesTau)
    assert(c.best(7) == KSirResult(Seq.empty, 0.0, 7, 7))
    // Every τ_j is below a singleton's gain λ·ln 2 / 2 ≈ 0.17 here, so
    // `bound` alone decides which candidates admit an element.
    c.raise(0.1) // j = -24 .. -10
    c.offer(eng.activeElement(2).get, c.tau(3)) // S_0..S_3 = {2}
    c.offer(eng.activeElement(1).get, c.tau(4)) // 1 adds nothing to {2}: S_4 = {1}
    assert(c.state(3).score == c.state(4).score && c.state(3).score > 0.0)
    assert(c.best(7) == KSirResult(Seq(2L), c.state(3).score, 7, 7))
    c.raise(math.pow(1.1, -20)) // j = -20 .. -6: {2} leaves Φ, {1} is first
    c.offer(eng.activeElement(3).get, c.tau(0))
    assert(c.best(7).elements == Seq(1L, 3L))
  }

  test("candidates share one state exactly while their member sequences are equal, each in one run of j") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(300, 3600, 89L))
    val eng = new KSirEngine(g.model, 2400, 0.5, 5.0)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    val rnd = new scala.util.Random(97)
    var mostRuns = 0
    Seq("ReachesTau" -> ThresholdCandidates.ReachesTau, "Sieve" -> ThresholdCandidates.Sieve).foreach { case (name, rule) =>
      (0 until 10).foreach { trial =>
        val q = QueryVector(rnd.nextInt(g.model.z) -> 1.0)
        val c = new ThresholdCandidates(eng, q, 1 + rnd.nextInt(10), 0.1, rule)
        val probe = new CandidateState(eng, q)
        eng.activeElements.foreach { ae =>
          c.raise(probe.gain(ae))
          val until = rnd.nextInt(c.size + 1)
          c.offer(ae, if (until == 0) 0.0 else c.tau(until - 1))
          val runs = (0 until c.size).filter(i => i == 0 || !(c.state(i) eq c.state(i - 1))).map(c.state)
          val what = s"$name trial $trial e${ae.elem.id}"
          assert(runs.indices.forall(a => runs.indices.forall(b => a == b || !(runs(a) eq runs(b)))), s"$what: a state in two runs")
          assert(runs.map(_.members).distinct.size == runs.size, s"$what: equal members in two states")
          mostRuns = math.max(mostRuns, runs.size)
        }
      }
    }
    assert(mostRuns >= 3, "candidates split into runs")
  }

  test("the cached floor is the least threshold of any unfilled candidate after every raise and offer") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(300, 3600, 89L))
    val eng = new KSirEngine(g.model, 2400, 0.5, 5.0)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    val rnd = new scala.util.Random(101)
    Seq("ReachesTau" -> ThresholdCandidates.ReachesTau, "Sieve" -> ThresholdCandidates.Sieve).foreach { case (name, rule) =>
      (0 until 10).foreach { trial =>
        val q = QueryVector(rnd.nextInt(g.model.z) -> 1.0)
        val k = 1 + rnd.nextInt(5)
        val c = new ThresholdCandidates(eng, q, k, 0.1, rule)
        def fromScratch: Double =
          if (c.size == 0) 0.0
          else (0 until c.size).filter(i => c.state(i).size < k).map { i =>
            if (rule eq ThresholdCandidates.ReachesTau) c.tau(i)
            else (c.phi(i) / 2.0 - c.state(i).score) / (k - c.state(i).size)
          }.minOption.getOrElse(Double.PositiveInfinity)
        def check(what: String): Unit =
          assert(java.lang.Double.doubleToRawLongBits(c.floor) == java.lang.Double.doubleToRawLongBits(fromScratch),
            s"$name trial $trial $what: floor ${c.floor}, from scratch $fromScratch")
        check("before any raise")
        val probe = new CandidateState(eng, q)
        eng.activeElements.foreach { ae =>
          val single = probe.gain(ae)
          c.raise(single)
          check(s"raise e${ae.elem.id}")
          c.offer(ae, if (rule eq ThresholdCandidates.ReachesTau) eng.deltaScore(ae, q) else single)
          check(s"offer e${ae.elem.id}")
        }
      }
    }
  }
}
