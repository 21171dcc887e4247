package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}

/** Effectiveness baselines of §5.1: TF-IDF top-k, DIV, REL, Sumblr-lite. */
class BaselinesSpec extends AnyFunSuite {

  private val eng = PaperExample.engineAt(8)

  test("TfIdfIndex: document frequencies over the active window") {
    val idx = new TfIdfIndex(eng)
    assert(idx.nDocs == 7)
    // w10 appears in e3, e6, e8 (e4 expired): df = 3.
    assert(idx.docFreq(10L) == 3)
    // w4 appears in e2 and e7.
    assert(idx.docFreq(4L) == 2)
  }

  test("TfIdfIndex: idf of an absent word is 0") {
    val idx = new TfIdfIndex(eng)
    assert(idx.idf(999) == 0.0)
  }

  test("TfIdfIndex: idf decreases with document frequency") {
    val idx = new TfIdfIndex(eng)
    assert(idx.idf(9) > idx.idf(4)) // w9 in 1 doc, w4 in 2
    assert(idx.idf(4) > idx.idf(10)) // w4 in 2, w10 in 3
  }

  test("TF-IDF query returns documents containing the keyword first") {
    // w9 (manutd) appears only in e2.
    val res = TfIdf.query(eng, Seq(9), 3)
    assert(res.headOption.contains(2L))
  }

  test("TF-IDF query with out-of-corpus keywords is empty") {
    assert(TfIdf.query(eng, Seq(999), 3).isEmpty)
  }

  test("TF-IDF query caps at k results") {
    assert(TfIdf.query(eng, Seq(10, 11), 2).size <= 2)
  }

  test("DIV returns relevant but diverse results") {
    val res = DivQuery.query(eng, Seq(10, 11), 3)
    assert(res.nonEmpty && res.size <= 3)
    // All results must contain at least one query word (positive relevance).
    res.foreach { id =>
      val words = eng.activeElement(id).get.elem.words.toSet
      assert(words.contains(10) || words.contains(11), s"e$id irrelevant")
    }
  }

  test("DIV is deterministic") {
    assert(DivQuery.query(eng, Seq(10, 11), 3) == DivQuery.query(eng, Seq(10, 11), 3))
  }

  test("REL returns elements ordered by cosine similarity to the query vector") {
    val q = QueryVector(0 -> 1.0)
    val res = TopKRelevance.query(eng, q, 3)
    val sims = res.map(id => eng.activeElement(id).get.elem.topics.cosine(q.entries))
    assert(sims == sims.sorted(Ordering[Double].reverse))
    // e3 (0.89 on θ1) beats e1 (0.2 on θ1) for a pure-θ1 query.
    assert(res.indexOf(3L) >= 0)
    assert(res.indexOf(3L) < math.max(res.indexOf(1L), res.size))
  }

  test("REL respects k") {
    assert(TopKRelevance.query(eng, QueryVector(1 -> 1.0), 2).size == 2)
  }

  test("Sumblr returns only elements containing a keyword") {
    val res = Sumblr.query(eng, Seq(10), 2)
    res.foreach(id => assert(eng.activeElement(id).get.elem.words.contains(10)))
  }

  test("Sumblr returns all candidates when fewer than k") {
    val res = Sumblr.query(eng, Seq(9), 5) // only e2 contains w9
    assert(res == Seq(2L))
  }

  test("Sumblr with no matching candidates is empty") {
    assert(Sumblr.query(eng, Seq(999), 3).isEmpty)
  }

  test("Sumblr is deterministic for a fixed seed") {
    val g = SocialStreamGen.generate(StreamConfig("s", 200, 300, 8, 8, 1.0, 1000, 1000, seed = 3L))
    val e2 = new KSirEngine(g.model, 800, 0.5, 5.0)
    Bucket.bucketize(g.elements, 100, 1000).foreach(e2.advance)
    val kw = g.elements.head.words.take(2).toSeq
    assert(Sumblr.query(e2, kw, 5) == Sumblr.query(e2, kw, 5))
  }

  test("Sumblr covers multiple clusters on a larger stream") {
    val g = SocialStreamGen.generate(StreamConfig("s", 300, 300, 8, 10, 1.0, 1000, 1000, seed = 4L))
    val e2 = new KSirEngine(g.model, 800, 0.5, 5.0)
    Bucket.bucketize(g.elements, 100, 1000).foreach(e2.advance)
    // Frequent words → many candidates → should fill k slots.
    val allWords = g.elements.flatMap(_.words)
    val frequent = allWords.groupBy(identity).toSeq.sortBy(-_._2.size).take(3).map(_._1)
    val res = Sumblr.query(e2, frequent, 4)
    assert(res.size == 4)
    assert(res.distinct.size == 4)
  }

  /** CELF on a boxed `PriorityQueue` of (gain, id) with an id lookup per pop,
    * as it ran before it moved onto `GainHeap`, with equal gains dequeued by
    * id, smaller first, as `GainHeap` does.
    */
  private def boxedCelf(engine: KSirEngine, q: QueryVector, k: Int): KSirResult = {
    val s = new CandidateState(engine, q)
    val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Long)](
      Ordering.by[(Double, Long), (Double, Long)](e => (e._1, -e._2))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)))
    var evaluated = 0
    engine.activeElements.foreach { ae =>
      val d = s.gain(ae)
      evaluated += 1
      if (d > 0.0) heap.enqueue((d, ae.elem.id))
    }
    while (s.size < k && heap.nonEmpty) {
      val (_, id) = heap.dequeue()
      val ae = engine.activeElement(id).get
      val g = s.gain(ae)
      if (heap.isEmpty || g >= heap.head._1) {
        if (g > 0.0) s.add(ae)
      } else heap.enqueue((g, id))
    }
    KSirResult(s.members, s.score, evaluated, evaluated)
  }

  test("CELF equals the boxed-queue CELF in ids, order and score, with ties") {
    def engineOf(elements: Seq[Element], model: TopicModel): KSirEngine = {
      val e = new KSirEngine(model, 2400, 0.5, 5.0)
      Bucket.bucketize(elements, 300, 3600).foreach(e.advance)
      e
    }
    val am = SocialStreamGen.generate(StreamConfig.aminer(500, 3600, 71L))
    val tw = SocialStreamGen.generate(StreamConfig.twitter(2000, 3600, 73L))
    // Every element twice, the copy's references pointing at copies, so each
    // element and its copy have equal gains until one of them is chosen.
    val n = am.elements.length
    val doubled = am.elements ++ am.elements.map(e => e.copy(id = e.id + n, refs = e.refs.map(_ + n)))
    val rnd = new scala.util.Random(79)
    Seq(("aminer", am.model, am.elements), ("twitter", tw.model, tw.elements), ("doubled", am.model, doubled)).foreach {
      case (name, model, elements) =>
        val eng = engineOf(elements, model)
        (0 until 40).foreach { trial =>
          val topics = Seq.fill(1 + rnd.nextInt(3))(rnd.nextInt(model.z)).distinct
          val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
          val k = 1 + rnd.nextInt(15)
          val got = Celf.query(eng, q, k)
          val want = boxedCelf(eng, q, k)
          val what = s"$name trial $trial k=$k"
          assert(got.elements == want.elements, what)
          assert(java.lang.Double.doubleToRawLongBits(got.score) == java.lang.Double.doubleToRawLongBits(want.score), what)
          assert(got.evaluated == want.evaluated && got.retrieved == want.retrieved, what)
        }
    }
  }

  test("CELF picks as plain greedy does when gains differ by under 1e-12") {
    // One topic and λ = 1, so f(S, x) = Σ_w max_{e∈S} σ(w, e). C covers words 0
    // and 1, A words 1 and 2, B word 3. Word 1's σ is about 3e-13, and word 3's
    // σ exceeds word 2's by about 6e-14: A beats B alone, but once C holds
    // word 1, B beats A by less than 1e-12.
    val rest = 1.0 - 0.3 - 1e-14 - 0.2 - (0.2 + 1e-13)
    val model = new TopicModel(1, 5, Array(Array(0.3, 1e-14, 0.2, 0.2 + 1e-13, rest)))
    def el(id: Long, words: Int*) = Element(id, 1, words.toArray, Array.empty, SparseVec(0 -> 1.0))
    val (c, a, b) = (el(1, 0, 1), el(2, 1, 2), el(3, 3))
    val eng = new KSirEngine(model, 100, 1.0, 5.0)
    eng.advance(Bucket(1, Seq(c, a, b)))
    val q = QueryVector(0 -> 1.0)
    val ae = Seq(c, a, b).map(e => eng.activeElement(e.id).get)
    val s = new CandidateState(eng, q)
    assert(s.gain(ae(0)) > s.gain(ae(1)) && s.gain(ae(1)) > s.gain(ae(2)))
    s.add(ae(0))
    val (gA, gB) = (s.gain(ae(1)), s.gain(ae(2)))
    assert(gA < gB && gB - gA < 1e-12, s"gains after C: A $gA, B $gB")
    // Plain greedy: the greatest fresh gain each round.
    val greedy = new CandidateState(eng, q)
    (1 to 2).foreach(_ => greedy.add(ae.filterNot(e => greedy.members.contains(e.elem.id)).maxBy(greedy.gain)))
    assert(greedy.members == Seq(1L, 3L))
    assert(Celf.query(eng, q, 2).elements == greedy.members)
  }

  /** SieveStreaming as it ran before threshold candidates shared states: every
    * candidate, on its own state, is tested on every active element.
    */
  private def unsharedSieve(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    val candidates = new UnsharedCandidates(engine, q, k, epsilon)
    val probe = new CandidateState(engine, q)
    engine.activeElements.foreach { ae =>
      candidates.raise(probe.gain(ae))
      var i = 0
      while (i < candidates.size) {
        val s = candidates.state(i)
        if (s.size < k) {
          val tau = (candidates.phi(i) / 2.0 - s.score) / (k - s.size)
          val g = s.gain(ae)
          if (g > 0.0 && g >= tau) s.add(ae)
        }
        i += 1
      }
    }
    candidates.best(engine.activeCount)
  }

  test("SieveStreaming equals the Sieve with unshared candidate states in ids, order, score and counts") {
    val engines = Seq(
      SocialStreamGen.generate(StreamConfig.aminer(500, 3600, 71L)),
      SocialStreamGen.generate(StreamConfig.twitter(2000, 3600, 73L)),
    ).map { g =>
      val e = new KSirEngine(g.model, 2400, 0.5, 5.0)
      Bucket.bucketize(g.elements, 300, 3600).foreach(e.advance)
      (e, g.model.z)
    } ++ (0L to 4L).map(seed => (PropStreams.engine(seed), 8))
    val rnd = new scala.util.Random(101)
    engines.zipWithIndex.foreach { case ((e, z), n) =>
      (0 until 30).foreach { trial =>
        val topics = Seq.fill(1 + rnd.nextInt(3))(rnd.nextInt(z)).distinct
        val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
        val k = 1 + rnd.nextInt(15)
        val eps = Seq(0.01, 0.1, 0.3)(rnd.nextInt(3))
        val got = SieveStreaming.query(e, q, k, eps)
        val want = unsharedSieve(e, q, k, eps)
        val what = s"engine $n trial $trial k=$k ε=$eps"
        assert(got.elements == want.elements, what)
        assert(java.lang.Double.doubleToRawLongBits(got.score) == java.lang.Double.doubleToRawLongBits(want.score), what)
        assert(got.evaluated == want.evaluated && got.retrieved == want.retrieved, what)
      }
    }
  }
}
