package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SocialStreamGen

/** Property tests for the scoring layer: the paper's Lemmas 1–2 (monotone,
  * submodular) and the consistency of the incremental CandidateState with a
  * from-scratch evaluation. Deterministic sweep over seeds and random
  * queries (see also [[ScoringCheckProps]] for the ScalaCheck variants).
  */
class ScoringPropertiesSpec extends AnyFunSuite {

  private def mkEngine(seed: Long): KSirEngine = PropStreams.engine(seed)

  private def queries(seed: Long): Seq[QueryVector] = PropStreams.queries(seed)

  test("f is monotone: f(S ∪ {e}) >= f(S) (Lemmas 1+2)") {
    for (seed <- 0L to 6L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted
      val rnd = new scala.util.Random(seed)
      (0 until 5).foreach { _ =>
        val s = rnd.shuffle(ids).take(rnd.nextInt(ids.size))
        val e = ids(rnd.nextInt(ids.size))
        assert(eng.evaluate(s :+ e, q) >= eng.evaluate(s, q) - 1e-9)
      }
    }
  }

  test("f is submodular: gain into S >= gain into T ⊇ S (Lemmas 1+2)") {
    for (seed <- 0L to 6L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted
      val rnd = new scala.util.Random(seed + 1)
      (0 until 5).foreach { _ =>
        val e = ids(rnd.nextInt(ids.size))
        val rest = rnd.shuffle(ids.filterNot(_ == e))
        val s = rest.take(rest.size / 3)
        val t = rest.take(2 * rest.size / 3) // S ⊆ T
        val gS = eng.evaluate(s :+ e, q) - eng.evaluate(s, q)
        val gT = eng.evaluate(t :+ e, q) - eng.evaluate(t, q)
        assert(gS >= gT - 1e-9, s"gain($e|S)=$gS < gain($e|T)=$gT")
      }
    }
  }

  test("f is nonnegative and f(∅) = 0") {
    for (seed <- 0L to 6L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      assert(eng.evaluate(Seq.empty, q) == 0.0)
      val ids = eng.activeElements.map(_.elem.id).toSeq.take(5)
      assert(eng.evaluate(ids, q) >= 0.0)
    }
  }

  test("CandidateState.gain equals from-scratch marginal f difference") {
    for (seed <- 0L to 6L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted
      val s = ids.take(3)
      val cs = new CandidateState(eng, q)
      s.foreach(id => cs.add(eng.activeElement(id).get))
      ids.drop(3).take(8).foreach { e =>
        val expected = eng.evaluate(s :+ e, q) - eng.evaluate(s, q)
        assert(math.abs(cs.gain(eng.activeElement(e).get) - expected) < 1e-9)
      }
    }
  }

  test("CandidateState.score equals from-scratch f after incremental adds") {
    for (seed <- 0L to 6L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted.take(8)
      val cs = new CandidateState(eng, q)
      ids.foreach(id => cs.add(eng.activeElement(id).get))
      assert(math.abs(cs.score - eng.evaluate(ids, q)) < 1e-9)
    }
  }

  test("a copied CandidateState and its original take different elements, each bit-equal to a state built from scratch") {
    def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)
    for (seed <- 0L to 4L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val active = eng.activeElements.toSeq.sortBy(_.elem.id)
      val (shared, rest) = active.splitAt(3)
      val (left, right) = rest.take(8).splitAt(4)
      val orig = new CandidateState(eng, q)
      shared.foreach(orig.add)
      val copy = orig.copy()
      left.foreach(orig.add)
      right.foreach(copy.add)
      Seq((orig, shared ++ left), (copy, shared ++ right)).foreach { case (s, members) =>
        val fresh = new CandidateState(eng, q)
        members.foreach(fresh.add)
        assert(s.members == fresh.members)
        assert(bits(s.score) == bits(fresh.score), s"seed $seed")
        active.foreach(ae => assert(bits(s.gain(ae)) == bits(fresh.gain(ae)), s"seed $seed e${ae.elem.id}"))
      }
    }
  }

  test("a gain never exceeds the singleton gain, as raw doubles: Δ(e|S) ≤ Δ(e|∅)") {
    val aminer = SocialStreamGen.generate(repro.data.StreamConfig.aminer(400, 3600, 61L))
    val dense = new KSirEngine(aminer.model, 2400, 0.5, 5.0)
    Bucket.bucketize(aminer.elements, 300, 3600).foreach(dense.advance)
    val engines = (0L to 6L).map(seed => (mkEngine(seed), queries(seed))) :+
      (dense, Seq(QueryVector(3 -> 1.0), QueryVector(7 -> 0.3, 19 -> 0.7), QueryVector(1 -> 0.2, 2 -> 0.5, 40 -> 0.3)))
    val rnd = new scala.util.Random(59)
    var strictlyLess = 0
    engines.zipWithIndex.foreach { case ((eng, qs), n) =>
      val active = eng.activeElements.toIndexedSeq
      qs.foreach { q =>
        val empty = new CandidateState(eng, q)
        (0 until 8).foreach { trial =>
          val s = new CandidateState(eng, q)
          (0 until rnd.nextInt(12)).foreach(_ => s.add(active(rnd.nextInt(active.size))))
          active.foreach { ae =>
            val g = s.gain(ae)
            val single = empty.gain(ae)
            assert(g <= single, s"engine $n trial $trial e${ae.elem.id}: $g > $single")
            if (g < single) strictlyLess += 1
          }
        }
      }
    }
    assert(strictlyLess > 0)
  }

  test("gain does not mutate state: two consecutive gains agree") {
    for (seed <- 0L to 4L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted
      val cs = new CandidateState(eng, q)
      cs.add(eng.activeElement(ids.head).get)
      val e = eng.activeElement(ids.last).get
      assert(cs.gain(e) == cs.gain(e))
    }
  }

  test("duplicate add contributes zero additional score") {
    for (seed <- 0L to 4L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      val ids = eng.activeElements.map(_.elem.id).toSeq.sorted
      val cs = new CandidateState(eng, q)
      val e = eng.activeElement(ids.head).get
      cs.add(e)
      val s1 = cs.score
      cs.add(e)
      assert(math.abs(cs.score - s1) < 1e-12)
    }
  }

  test("singleton f equals δ(e, x)") {
    for (seed <- 0L to 4L; q <- queries(seed)) {
      val eng = mkEngine(seed)
      eng.activeElements.take(10).foreach { ae =>
        assert(math.abs(eng.evaluate(Seq(ae.elem.id), q) - eng.deltaScore(ae, q)) < 1e-9)
      }
    }
  }

  test("λ=1 engine scores are pure semantic sums (no influence term)") {
    val g = SocialStreamGen.generate(
      repro.data.StreamConfig("s", 40, 100, 4, 5, 1.5, 400, 400, seed = 5L))
    val sem = new KSirEngine(g.model, 400, lambda = 1.0, eta = 7.0)
    Bucket.bucketize(g.elements, 100, 400).foreach(sem.advance)
    sem.activeElements.foreach { ae =>
      (0 until 4).foreach(t => assert(math.abs(ae.delta(t) - ae.semantic(t)) < 1e-12))
    }
  }

  test("λ=0 engine scores are pure influence terms") {
    val g = SocialStreamGen.generate(
      repro.data.StreamConfig("s", 40, 100, 4, 5, 1.5, 400, 400, seed = 5L))
    val inf = new KSirEngine(g.model, 400, lambda = 0.0, eta = 2.0)
    Bucket.bucketize(g.elements, 100, 400).foreach(inf.advance)
    inf.activeElements.foreach { ae =>
      (0 until 4).foreach(t => assert(math.abs(ae.delta(t) - ae.influence(t) / 2.0) < 1e-12))
    }
  }
}

/** Shared small random streams for the property suites. */
object PropStreams {
  def engine(seed: Long): KSirEngine = {
    val cfg = repro.data.StreamConfig(
      name = "prop", nElements = 60, vocabSize = 120, z = 8, avgLen = 6,
      avgRefs = 1.2, spanSeconds = 600, refLookback = 600, seed = seed)
    val g = SocialStreamGen.generate(cfg)
    val engine = new KSirEngine(g.model, window = 400, lambda = 0.5, eta = 5.0)
    Bucket.bucketize(g.elements, 100, 600).foreach(engine.advance)
    engine
  }

  def queries(seed: Long): Seq[QueryVector] = {
    val rnd = new scala.util.Random(seed * 131 + 7)
    (0 until 3).map { _ =>
      val t1 = rnd.nextInt(8); val t2 = rnd.nextInt(8)
      val w = 0.1 + 0.8 * rnd.nextDouble()
      if (t1 == t2) QueryVector(t1 -> 1.0) else QueryVector(t1 -> w, t2 -> (1.0 - w))
    }
  }
}
