package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.TopKRepresentative
import repro.data.{SocialStreamGen, StreamConfig}

/** MTTD, MTTS and Top-k Rep against the same traversals run on the paper's
  * bound UB(x) = Σ_i x_i·δ_i(e^(i)), with MTTD retrieving eagerly as
  * Algorithm 3 states it: equal answers, bit for bit, from no more
  * retrievals. All three retrieve fewer on some queries with more topics
  * than any active element has, and on some with no more: the bound
  * counts only the topic sets that active elements cover.
  */
class SupportBoundSpec extends AnyFunSuite {

  /** Algorithm 3 as the paper states it: τ starts at UB(x), and each round
    * first retrieves every element whose bound UB(x) reaches τ into the
    * buffer, then runs the lazy-greedy pass over it.
    */
  private def paperMttd(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    val cursor = new RankedListCursor(engine, q)
    val s = new CandidateState(engine, q)
    val buffer = new GainHeap
    var tau = cursor.paperUpperBound
    var tauTerm = 0.0
    def result: KSirResult = KSirResult(s.members, s.score, cursor.retrievedCount, cursor.retrievedCount)
    if (tau <= 0.0) return result
    while (tau >= tauTerm) {
      while (!cursor.exhausted && cursor.paperUpperBound >= tau) {
        val ae = cursor.popMax()
        buffer.enqueue(engine.deltaScore(ae, q), ae)
      }
      while (buffer.nonEmpty && buffer.headGain >= tau) {
        val ae = buffer.dequeue()
        val g = s.gain(ae)
        if (g >= tau) {
          s.add(ae)
          if (s.size == k) return result
        } else if (g > 0.0) buffer.enqueue(g, ae)
      }
      tauTerm = s.score * epsilon / k
      tau = (1.0 - epsilon) * tau
      if (cursor.exhausted && (buffer.isEmpty || buffer.headGain <= tauTerm)) return result
    }
    result
  }

  /** Algorithm 2, stopping once UB(x) falls below TH. */
  private def paperMtts(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    val cursor = new RankedListCursor(engine, q)
    val candidates = new ThresholdCandidates(engine, q, k, epsilon, ThresholdCandidates.ReachesTau)
    while (cursor.paperUpperBound >= candidates.floor && cursor.paperUpperBound > 0.0) {
      val ae = cursor.popMax()
      val deltaE = engine.deltaScore(ae, q)
      candidates.raise(deltaE)
      candidates.offer(ae, deltaE)
    }
    candidates.best(cursor.retrievedCount)
  }

  /** Top-k Rep, stopping once UB(x) falls below the k-th best δ(e, x). */
  private def paperTopK(engine: KSirEngine, q: QueryVector, k: Int): KSirResult = {
    val cursor = new RankedListCursor(engine, q)
    val top = scala.collection.mutable.PriorityQueue.empty[(Double, Long)](Ordering.by[(Double, Long), Double](_._1).reverse)
    while (!cursor.exhausted && (top.size < k || cursor.paperUpperBound >= top.head._1)) {
      val ae = cursor.popMax()
      val d = engine.deltaScore(ae, q)
      if (d > 0.0) {
        top.enqueue((d, ae.elem.id))
        if (top.size > k) top.dequeue()
      }
    }
    val ids = top.toSeq.sortBy(-_._1).map(_._2)
    KSirResult(ids, engine.evaluate(ids, q), cursor.retrievedCount, cursor.retrievedCount)
  }

  /** Generator windows whose elements carry 1–3 topics; the last one has 8
    * topics, so its lists are long, and references reaching back past the
    * window, so elements are resurrected.
    */
  private lazy val engines: Seq[(KSirEngine, Int)] = Seq(
    (StreamConfig.aminer(500, 3600, 71L), 2400L, 300L),
    (StreamConfig.twitter(2000, 3600, 73L), 2400L, 300L),
    (StreamConfig("lists", 3000, 500, 8, 8, 1.5, 3600, 3600, seed = 79L), 1200L, 300L),
  ).map { case (cfg, window, bucket) =>
    val g = SocialStreamGen.generate(cfg)
    val e = new KSirEngine(g.model, window, 0.5, 5.0)
    Bucket.bucketize(g.elements, bucket, 3600).foreach(e.advance)
    (e, g.model.z)
  } ++ (0L to 4L).map(seed => (PropStreams.engine(seed), 8))

  /** Runs `got` and `want` on queries of 4–5 topics, more than any active
    * element has, and of 1–3; asserts equal ids, order and score bits, and
    * no more retrievals. Returns how many queries retrieved fewer, among
    * those with at most m topics and among those with more, m being the most
    * topics of any active element.
    */
  private def compare(seed: Int)(got: (KSirEngine, QueryVector, Int, Double) => KSirResult,
      want: (KSirEngine, QueryVector, Int, Double) => KSirResult): (Int, Int) = {
    val rnd = new scala.util.Random(seed)
    var fewerWithinM = 0
    var fewerBeyondM = 0
    engines.zipWithIndex.foreach { case ((e, z), n) =>
      val m = e.activeElements.map(_.topics.idx.length).max
      assert(m <= 3, s"engine $n")
      (0 until 40).foreach { trial =>
        val d = if (trial % 3 == 2) 1 + rnd.nextInt(3) else 4 + rnd.nextInt(2)
        val topics = rnd.shuffle((0 until z).toList).take(d)
        val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
        val k = 1 + rnd.nextInt(15)
        val eps = Seq(0.01, 0.1, 0.3)(rnd.nextInt(3))
        val a = got(e, q, k, eps)
        val b = want(e, q, k, eps)
        val what = s"engine $n trial $trial d=$d k=$k ε=$eps"
        assert(a.elements == b.elements, what)
        assert(java.lang.Double.doubleToRawLongBits(a.score) == java.lang.Double.doubleToRawLongBits(b.score), what)
        assert(a.retrieved <= b.retrieved && a.evaluated <= b.evaluated, what)
        if (a.retrieved < b.retrieved) { if (q.d > m) fewerBeyondM += 1 else fewerWithinM += 1 }
      }
    }
    (fewerWithinM, fewerBeyondM)
  }

  test("MTTD equals eager Algorithm 3 on the paper's bound in ids, order and score, from no more retrievals") {
    val (withinM, beyondM) = compare(107)(MTTD.query, paperMttd)
    assert(withinM > 0 && beyondM > 0, (withinM, beyondM))
  }

  test("MTTS equals its traversal on the paper's bound in ids, order and score, from no more retrievals") {
    val (withinM, beyondM) = compare(109)(MTTS.query, paperMtts)
    assert(withinM > 0 && beyondM > 0, (withinM, beyondM))
  }

  test("Top-k Rep equals its traversal on the paper's bound in ids, order and score, from no more retrievals") {
    val (withinM, beyondM) = compare(113)((e, q, k, _) => TopKRepresentative.query(e, q, k), (e, q, k, _) => paperTopK(e, q, k))
    assert(withinM > 0 && beyondM > 0, (withinM, beyondM))
  }
}
