package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._

/** Cross-algorithm correctness on small synthetic windows: approximation
  * guarantees against brute-force OPT, early-termination behaviour, and the
  * relative quality ordering the paper reports (§5.3).
  */
class AlgorithmsSpec extends AnyFunSuite {

  private def bruteOpt(eng: KSirEngine, q: QueryVector, k: Int): Double = {
    val ids = eng.activeElements.map(_.elem.id).toSeq
    if (ids.size <= k) eng.evaluate(ids, q)
    else ids.combinations(k).map(eng.evaluate(_, q)).max
  }

  // Small engines so brute force is feasible (C(n,k) with n≈20).
  private def smallEngine(seed: Long): KSirEngine = {
    val cfg = repro.data.StreamConfig("small", 20, 60, 4, 5, 1.0, 200, 200, seed = seed)
    val g = repro.data.SocialStreamGen.generate(cfg)
    val e = new KSirEngine(g.model, 200, 0.5, 5.0)
    Bucket.bucketize(g.elements, 50, 200).foreach(e.advance)
    e
  }

  private val qs = Seq(
    QueryVector(0 -> 1.0),
    QueryVector(0 -> 0.5, 1 -> 0.5),
    QueryVector(2 -> 0.3, 3 -> 0.7),
    QueryVector(0 -> 0.25, 1 -> 0.25, 2 -> 0.25, 3 -> 0.25),
  )

  test("MTTS achieves (1/2 - ε)·OPT on every small instance") {
    for (seed <- 0L to 5L; q <- qs; k <- Seq(2, 3)) {
      val eng = smallEngine(seed)
      val opt = bruteOpt(eng, q, k)
      val res = MTTS.query(eng, q, k, 0.1)
      assert(res.score >= (0.5 - 0.1) * opt - 1e-9, s"seed=$seed q=${q.entries.toSeq} k=$k: ${res.score} < ${(0.5 - 0.1) * opt}")
    }
  }

  test("MTTD achieves (1 - 1/e - ε)·OPT on every small instance") {
    for (seed <- 0L to 5L; q <- qs; k <- Seq(2, 3)) {
      val eng = smallEngine(seed)
      val opt = bruteOpt(eng, q, k)
      val res = MTTD.query(eng, q, k, 0.1)
      assert(res.score >= (1 - 1 / math.E - 0.1) * opt - 1e-9,
        s"seed=$seed q=${q.entries.toSeq} k=$k: ${res.score} < ${(1 - 1 / math.E - 0.1) * opt}")
    }
  }

  test("CELF achieves (1 - 1/e)·OPT on every small instance") {
    for (seed <- 0L to 5L; q <- qs; k <- Seq(2, 3)) {
      val eng = smallEngine(seed)
      val opt = bruteOpt(eng, q, k)
      val res = Celf.query(eng, q, k)
      assert(res.score >= (1 - 1 / math.E) * opt - 1e-9)
    }
  }

  test("CELF equals plain greedy (lazy evaluation is exact)") {
    for (seed <- 0L to 5L; q <- qs) {
      val eng = smallEngine(seed)
      val celf = Celf.query(eng, q, 3)
      // Reference greedy: recompute all gains at every step.
      val s = new CandidateState(eng, q)
      (0 until 3).foreach { _ =>
        val cand = eng.activeElements
          .filter(ae => !s.members.contains(ae.elem.id))
          .map(ae => (ae, s.gain(ae)))
          .filter(_._2 > 0)
          .toSeq
        if (cand.nonEmpty) s.add(cand.maxBy(c => (c._2, c._1.elem.id))._1)
      }
      assert(math.abs(celf.score - s.score) < 1e-9, s"seed=$seed: celf=${celf.score} greedy=${s.score}")
    }
  }

  test("SieveStreaming achieves (1/2 - ε)·OPT on every small instance") {
    for (seed <- 0L to 5L; q <- qs; k <- Seq(2, 3)) {
      val eng = smallEngine(seed)
      val opt = bruteOpt(eng, q, k)
      val res = SieveStreaming.query(eng, q, k, 0.1)
      assert(res.score >= (0.5 - 0.1) * opt - 1e-9)
    }
  }

  test("Top-k Representative is never better than CELF") {
    for (seed <- 0L to 5L; q <- qs; k <- Seq(2, 3)) {
      val eng = smallEngine(seed)
      assert(TopKRepresentative.query(eng, q, k).score <= Celf.query(eng, q, k).score + 1e-9)
    }
  }

  // Four elements with equal δ(e, x): one topic, the same words, no references.
  private def tiedEngine: KSirEngine = {
    val e = new KSirEngine(new TopicModel(1, 2, Array(Array(0.5, 0.5))), 200, 0.5, 5.0)
    e.advance(Bucket(10, Seq(3L, 1L, 4L, 2L).map(id => Element(id, 5, Array(0, 1), Array.empty, SparseVec(0 -> 1.0)))))
    e
  }

  test("Top-k Representative picks the k max-δ elements") {
    val inputs = (0L to 3L).map(smallEngine).flatMap(eng => qs.map(q => (eng, q))) :+ ((tiedEngine, QueryVector(0 -> 1.0)))
    for ((eng, q) <- inputs; k <- Seq(1, 2, 3, 5)) {
      val res = TopKRepresentative.query(eng, q, k)
      // The first k of A_t by (δ descending, id ascending): a total order.
      val expected = eng.activeElements.toSeq
        .map(ae => (ae.elem.id, eng.deltaScore(ae, q)))
        .filter(_._2 > 0)
        .sortBy { case (id, s) => (-s, id) }
        .take(k).map(_._1)
      val what = s"q=${q.entries.toSeq} k=$k"
      assert(res.elements == expected, what)
      assert(java.lang.Double.doubleToRawLongBits(res.score) == java.lang.Double.doubleToRawLongBits(eng.evaluate(expected, q)), what)
    }
  }

  test("MTTS evaluates no more elements than there are active") {
    for (seed <- 0L to 5L; q <- qs) {
      val eng = smallEngine(seed)
      val res = MTTS.query(eng, q, 3, 0.1)
      assert(res.evaluated <= eng.activeCount)
    }
  }

  test("on larger windows MTTS and MTTD prune most evaluations vs CELF") {
    val eng = PropStreams.engine(1)
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val celf = Celf.query(eng, q, 3)
    val mtts = MTTS.query(eng, q, 3, 0.2)
    assert(celf.evaluated == eng.activeCount, "CELF evaluates everything")
    assert(mtts.evaluated <= celf.evaluated)
  }

  test("algorithms return at most k elements and no duplicates") {
    for (seed <- 0L to 3L; q <- qs; k <- Seq(1, 2, 5)) {
      val eng = smallEngine(seed)
      Seq(
        MTTS.query(eng, q, k, 0.2).elements,
        MTTD.query(eng, q, k, 0.2).elements,
        Celf.query(eng, q, k).elements,
        SieveStreaming.query(eng, q, k, 0.2).elements,
        TopKRepresentative.query(eng, q, k).elements,
      ).foreach { ids =>
        assert(ids.size <= k)
        assert(ids.distinct.size == ids.size)
        ids.foreach(id => assert(eng.activeElement(id).isDefined))
      }
    }
  }

  test("k=1: every constant-factor algorithm picks a near-best element") {
    for (seed <- 0L to 3L; q <- qs) {
      val eng = smallEngine(seed)
      val best = eng.activeElements.map(ae => eng.deltaScore(ae, q)).max
      assert(MTTS.query(eng, q, 1, 0.1).score >= (0.5 - 0.1) * best - 1e-9)
      assert(MTTD.query(eng, q, 1, 0.1).score >= (1 - 1 / math.E - 0.1) * best - 1e-9)
      assert(math.abs(Celf.query(eng, q, 1).score - best) < 1e-9)
    }
  }

  test("queries on an empty engine return empty results") {
    val model = new TopicModel(2, 4, Array(Array(0.5, 0.5, 0, 0), Array(0, 0, 0.5, 0.5)))
    val eng = new KSirEngine(model, 10, 0.5, 1.0)
    eng.advance(Bucket(1, Seq.empty))
    val q = QueryVector(0 -> 1.0)
    assert(MTTS.query(eng, q, 3, 0.1).elements.isEmpty)
    assert(MTTD.query(eng, q, 3, 0.1).elements.isEmpty)
    assert(Celf.query(eng, q, 3).elements.isEmpty)
    assert(SieveStreaming.query(eng, q, 3, 0.1).elements.isEmpty)
    assert(TopKRepresentative.query(eng, q, 3).elements.isEmpty)
  }

  test("query on a topic with no elements returns empty") {
    val model = new TopicModel(2, 4, Array(Array(0.5, 0.5, 0, 0), Array(0, 0, 0.5, 0.5)))
    val eng = new KSirEngine(model, 10, 0.5, 1.0)
    eng.advance(Bucket(1, Seq(Element(1, 1, Array(0), Array.empty, SparseVec(0 -> 1.0)))))
    val q = QueryVector(1 -> 1.0)
    assert(MTTS.query(eng, q, 2, 0.1).elements.isEmpty)
    assert(MTTD.query(eng, q, 2, 0.1).elements.isEmpty)
  }

  test("invalid parameters are rejected") {
    val eng = smallEngine(0)
    val q = qs.head
    intercept[IllegalArgumentException](MTTS.query(eng, q, 0, 0.1))
    intercept[IllegalArgumentException](MTTS.query(eng, q, 2, 0.0))
    intercept[IllegalArgumentException](MTTD.query(eng, q, 2, 1.0))
    intercept[IllegalArgumentException](Celf.query(eng, q, 0))
    intercept[IllegalArgumentException](SieveStreaming.query(eng, q, 2, 0.0))
  }

  test("a query naming a topic outside [0, z) is rejected by every method") {
    val eng = smallEngine(0)
    val z = eng.model.z
    Seq(z, -1).foreach { bad =>
      val q = QueryVector(0 -> 0.5, bad -> 0.5)
      val methods = Seq[(String, () => KSirResult)](
        "MTTS" -> (() => MTTS.query(eng, q, 2, 0.1)),
        "MTTD" -> (() => MTTD.query(eng, q, 2, 0.1)),
        "CELF" -> (() => Celf.query(eng, q, 2)),
        "Sieve" -> (() => SieveStreaming.query(eng, q, 2, 0.1)),
        "Top-k Rep" -> (() => TopKRepresentative.query(eng, q, 2)),
      )
      methods.foreach { case (name, run) =>
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains(s"topic $bad"), s"$name: ${e.getMessage}")
      }
    }
  }

  test("MTTD quality is at least MTTS quality on the property streams (paper §5.3 trend)") {
    // Not a theorem — but the paper observes it consistently; check the
    // aggregate over several streams rather than each instance.
    var mttsTotal = 0.0
    var mttdTotal = 0.0
    for (seed <- 0L to 4L; q <- PropStreams.queries(seed)) {
      val eng = PropStreams.engine(seed)
      mttsTotal += MTTS.query(eng, q, 5, 0.1).score
      mttdTotal += MTTD.query(eng, q, 5, 0.1).score
    }
    assert(mttdTotal >= 0.95 * mttsTotal, s"MTTD=$mttdTotal MTTS=$mttsTotal")
  }
}
