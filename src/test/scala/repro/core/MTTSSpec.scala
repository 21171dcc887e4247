package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}
import repro.baselines.Celf

/** MTTS-specific behaviour: threshold bookkeeping, early termination,
  * parameter edges, determinism.
  */
class MTTSSpec extends AnyFunSuite {

  private val eng = PaperExample.engineAt(8)
  private val q = QueryVector(0 -> 0.5, 1 -> 0.5)

  test("MTTS is deterministic") {
    val a = MTTS.query(eng, q, 2, 0.2)
    val b = MTTS.query(eng, q, 2, 0.2)
    assert(a.elements == b.elements && a.score == b.score && a.evaluated == b.evaluated)
  }

  test("k larger than the active count returns every useful element") {
    val res = MTTS.query(eng, q, 100, 0.1)
    assert(res.elements.size <= eng.activeCount)
    assert(res.score > 0)
  }

  test("tiny ε (many candidates) still terminates and meets the bound") {
    val res = MTTS.query(eng, q, 2, 0.01)
    val opt = 0.6487 // brute-force OPT for this query (PaperExampleSpec)
    assert(res.score >= (0.5 - 0.01) * opt - 1e-9)
  }

  test("large ε (few candidates) still returns a non-empty result") {
    val res = MTTS.query(eng, q, 2, 0.9999999)
    assert(res.elements.nonEmpty)
  }

  test("retrieved count never exceeds total ranked-list entries") {
    val res = MTTS.query(eng, q, 2, 0.3)
    val totalEntries = (0 until 2).map(eng.rankedListSize).sum
    assert(res.retrieved <= totalEntries)
  }

  test("single-topic query traverses only that topic's list") {
    val res = MTTS.query(eng, QueryVector(0 -> 1.0), 2, 0.1)
    // every retrieved element must have p_1 > 0
    res.elements.foreach { id =>
      assert(eng.activeElement(id).get.elem.topics(0) > 0)
    }
  }

  test("score equals a from-scratch evaluation of the returned set") {
    val res = MTTS.query(eng, q, 3, 0.2)
    assert(math.abs(res.score - eng.evaluate(res.elements, q)) < 1e-9)
  }

  test("monotone in k: larger k never decreases the score") {
    val s1 = MTTS.query(eng, q, 1, 0.1).score
    val s2 = MTTS.query(eng, q, 2, 0.1).score
    val s3 = MTTS.query(eng, q, 5, 0.1).score
    assert(s1 <= s2 + 1e-9 && s2 <= s3 + 1e-9)
  }

  test("bound holds across many synthetic engines and ks") {
    for (seed <- 0L to 4L; k <- 1 to 4; q <- PropStreams.queries(seed)) {
      val e = PropStreams.engine(seed)
      val celf = Celf.query(e, q, k).score
      val res = MTTS.query(e, q, k, 0.1)
      // OPT >= celf, and MTTS >= (1/2-ε)OPT >= (1/2-ε)·celf must hold too.
      assert(res.score >= (0.5 - 0.1) * celf - 1e-9,
        s"seed=$seed k=$k: mtts=${res.score} celf=$celf")
    }
  }

  test("evaluated count is reported consistently with pruning") {
    for (seed <- 0L to 4L) {
      val e = PropStreams.engine(seed)
      val q = PropStreams.queries(seed).head
      val res = MTTS.query(e, q, 3, 0.1)
      assert(res.evaluated <= res.retrieved)
      assert(res.retrieved <= e.activeCount)
    }
  }

  /** Algorithm 2 with no use of Φ's order: every candidate, each on its own
    * state, is tested on every retrieved element, and TH is the minimum over
    * all unfilled candidates.
    */
  private def fullScanMtts(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    val cursor = new RankedListCursor(engine, q)
    val candidates = new UnsharedCandidates(engine, q, k, epsilon)
    var th = 0.0
    while (!cursor.exhausted && cursor.upperBound >= th && cursor.upperBound > 0.0) {
      val ae = cursor.popMax()
      val deltaE = engine.deltaScore(ae, q)
      candidates.raise(deltaE)
      (0 until candidates.size).foreach { i =>
        val s = candidates.state(i)
        if (deltaE >= candidates.tau(i) && s.size < k && s.gain(ae) >= candidates.tau(i)) s.add(ae)
      }
      val unfilled = (0 until candidates.size).filter(i => candidates.state(i).size < k).map(candidates.tau)
      th = if (candidates.size == 0) 0.0 else unfilled.minOption.getOrElse(Double.PositiveInfinity)
    }
    candidates.best(cursor.retrievedCount)
  }

  test("MTTS equals the full-scan Algorithm 2 in ids, order, score and counts") {
    val engines = Seq(
      SocialStreamGen.generate(StreamConfig.aminer(500, 3600, 71L)),
      SocialStreamGen.generate(StreamConfig.twitter(2000, 3600, 73L)),
    ).map { g =>
      val e = new KSirEngine(g.model, 2400, 0.5, 5.0)
      Bucket.bucketize(g.elements, 300, 3600).foreach(e.advance)
      (e, g.model.z)
    } ++ (0L to 4L).map(seed => (PropStreams.engine(seed), 8))
    val rnd = new scala.util.Random(83)
    engines.zipWithIndex.foreach { case ((e, z), n) =>
      (0 until 30).foreach { trial =>
        val topics = Seq.fill(1 + rnd.nextInt(3))(rnd.nextInt(z)).distinct
        val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
        val k = 1 + rnd.nextInt(15)
        val eps = Seq(0.01, 0.1, 0.3)(rnd.nextInt(3))
        val got = MTTS.query(e, q, k, eps)
        val want = fullScanMtts(e, q, k, eps)
        val what = s"engine $n trial $trial k=$k ε=$eps"
        assert(got.elements == want.elements, what)
        assert(java.lang.Double.doubleToRawLongBits(got.score) == java.lang.Double.doubleToRawLongBits(want.score), what)
        assert(got.evaluated == want.evaluated && got.retrieved == want.retrieved, what)
      }
    }
  }
}
