package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PaperExample

/** The ranked-list traversal operations of §4.1: ordered pops, cross-list
  * visited marking, and the UB(x) upper-bound invariant.
  */
class RankedListCursorSpec extends AnyFunSuite {

  private val eng = PaperExample.engineAt(8)

  test("pops arrive in non-increasing x-weighted score order per list") {
    val q = QueryVector(0 -> 1.0)
    val cursor = new RankedListCursor(eng, q)
    var last = Double.MaxValue
    var ae = cursor.popMax()
    while (ae != null) {
      val s = ae.delta(0)
      assert(s <= last + 1e-12)
      last = s
      ae = cursor.popMax()
    }
  }

  test("every active element on queried topics is retrieved exactly once") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val cursor = new RankedListCursor(eng, q)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Long]
    var ae = cursor.popMax()
    while (ae != null) { seen += ae.elem.id; ae = cursor.popMax() }
    assert(seen.distinct.size == seen.size, "no duplicates across lists")
    assert(seen.toSet == eng.activeElements.map(_.elem.id).toSet)
  }

  test("upperBound never increases as elements are popped") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val cursor = new RankedListCursor(eng, q)
    var prev = cursor.upperBound
    var ae = cursor.popMax()
    while (ae != null) {
      val ub = cursor.upperBound
      assert(ub <= prev + 1e-12, s"UB rose from $prev to $ub")
      prev = ub
      ae = cursor.popMax()
    }
    assert(cursor.exhausted && cursor.upperBound == 0.0)
  }

  test("upperBound dominates every later-popped element's δ(e,x)") {
    def check(e: KSirEngine, q: QueryVector): Unit = {
      val cursor = new RankedListCursor(e, q)
      var ub = cursor.upperBound
      var ae = cursor.popMax()
      while (ae != null) {
        assert(e.deltaScore(ae, q) <= ub + 1e-9)
        ub = cursor.upperBound
        ae = cursor.popMax()
      }
    }
    check(eng, QueryVector(0 -> 0.3, 1 -> 0.7))
    // Queries with more topics than any active element has.
    for (seed <- 0L to 4L) {
      val e = PropStreams.engine(seed)
      val rnd = new scala.util.Random(seed)
      (0 until 10).foreach { _ =>
        val topics = rnd.shuffle((0 until 8).toList).take(4 + rnd.nextInt(2))
        val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
        assert(q.d > e.activeElements.map(_.topics.idx.length).max, s"seed=$seed")
        check(e, q)
      }
    }
  }

  test("retrievedCount tracks pops") {
    val q = QueryVector(1 -> 1.0)
    val cursor = new RankedListCursor(eng, q)
    assert(cursor.retrievedCount == 0)
    cursor.popMax(); cursor.popMax()
    assert(cursor.retrievedCount == 2)
  }

  test("a query on an empty topic is exhausted immediately") {
    val model = new TopicModel(2, 4, Array(Array(0.5, 0.5, 0, 0), Array(0, 0, 0.5, 0.5)))
    val e = new KSirEngine(model, 10, 0.5, 1.0)
    e.advance(Bucket(1, Seq(Element(1, 1, Array(0), Array.empty, SparseVec(0 -> 1.0)))))
    val cursor = new RankedListCursor(e, QueryVector(1 -> 1.0))
    assert(cursor.exhausted && cursor.popMax() == null && cursor.upperBound == 0.0)
  }

  test("popMax follows the argmax_i x_i·δ_i rule on the paper example") {
    // Figure 5: first e3 (x1·δ1 = 0.33), then e1 (x2·δ2 = 0.28).
    val cursor = new RankedListCursor(eng, QueryVector(0 -> 0.5, 1 -> 0.5))
    assert(cursor.popMax().elem.id == 3L)
    assert(cursor.popMax().elem.id == 1L)
  }

  test("on the synthetic engines the full traversal matches the union of lists") {
    for (seed <- 0L to 3L) {
      val e = PropStreams.engine(seed)
      val q = QueryVector(0 -> 0.4, 3 -> 0.6)
      val cursor = new RankedListCursor(e, q)
      val seen = scala.collection.mutable.Set.empty[Long]
      var ae = cursor.popMax()
      while (ae != null) { seen += ae.elem.id; ae = cursor.popMax() }
      val expected = (e.rankedList(0).map(_._2) ++ e.rankedList(3).map(_._2)).toSet
      assert(seen == expected, s"seed=$seed")
    }
  }

  test("an element retrieved through a list whose next entries tie with it is not retrieved again") {
    // Topic 0 ranks e9, e8, e7 on one δ_0 (ties by id); topic 1 ranks e8,
    // e9, e7. After e9 and then e8 leave topic 0, topic 1 reaches e9 while
    // topic 0's head e7 ties e9's δ_0.
    val model = new TopicModel(2, 4, Array(Array(0.5, 0.5, 0, 0), Array(0, 0, 0.5, 0.5)))
    val e = new KSirEngine(model, 10, 0.5, 2.0)
    val half = SparseVec(0 -> 0.5, 1 -> 0.5)
    e.advance(Bucket(1, Seq(
      Element(9, 1, Array(0, 0, 0, 2), Array.empty, half),
      Element(8, 1, Array(0, 0, 0, 2, 3), Array.empty, half),
      Element(7, 1, Array(0, 0, 0), Array.empty, half),
    )))
    assert(e.rankedList(0).toSeq.map(_._1).distinct.size == 1)
    assert(e.rankedList(1).map(_._2).toSeq == Seq(8L, 9L, 7L))
    val cursor = new RankedListCursor(e, QueryVector(0 -> 0.5, 1 -> 0.5))
    val seen = Iterator.continually(cursor.popMax()).takeWhile(_ != null).map(_.elem.id).toSeq
    assert(seen == Seq(9L, 8L, 7L))
  }

  test("upperBound is the largest sum over the query's topic sets that active elements cover, bit for bit") {
    // Queried topics 0..3 have heads c, a, b, c: e1 heads lists 0 and 3 on
    // equal δ and equal x, e2 list 1 and e3 list 2. e4 sits off the query on
    // three topics. The covered sets are {0, 3}, {1} and {2}, so the bound
    // is the largest of c + c, a and b.
    val model = new TopicModel(7, 4, Array.fill(7)(Array.fill(4)(0.25)))
    def el(id: Long, topics: (Int, Double)*) = Element(id, 1, Array(0, 1, 1), Array.empty, SparseVec(topics: _*))
    val e = new KSirEngine(model, 10, 0.5, 2.0)
    e.advance(Bucket(1, Seq(
      el(1, 0 -> 0.5, 3 -> 0.5), el(2, 1 -> 1.0), el(3, 2 -> 1.0), el(4, 4 -> 0.25, 5 -> 0.25, 6 -> 0.5))))
    def head(topic: Int): Double = e.rankedList(topic).next()._1
    assert(java.lang.Double.doubleToRawLongBits(head(0)) == java.lang.Double.doubleToRawLongBits(head(3)))
    val c = head(0)
    def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)
    // a in (2c, 3c), where the bound is a, and in (1.1c, 1.9c), where it is
    // c + c; b in (1.1c, 1.9c).
    val rnd = new scala.util.Random(7)
    Seq(2.0 -> 1.0, 1.1 -> 0.8).foreach { case (lo, span) =>
      (0 until 20).foreach { _ =>
        val xa = (lo + span * rnd.nextDouble()) * c / head(1)
        val xb = (1.1 + 0.8 * rnd.nextDouble()) * c / head(2)
        val (a, b) = (xa * head(1), xb * head(2))
        val cursor = new RankedListCursor(e, QueryVector(0 -> 1.0, 1 -> xa, 2 -> xb, 3 -> 1.0))
        assert(bits(cursor.upperBound) == bits(Seq(c + c, a, b).max), (xa, xb))
        assert(bits(cursor.upperBound) == bits(if (lo > 1.5) a else c + c), (xa, xb))
        assert(cursor.paperUpperBound == ((c + a) + b) + c)
      }
    }
  }

  test("upperBound is at least δ(e, x) of every unretrieved element at every pop, on adversarial supports") {
    // Supports of 1 to 5 of 8 topics, drawn so that most topic sets occur,
    // and every fourth element a copy of an earlier one under a new id, so
    // that δ terms tie across lists. Queries of 1 to 6 topics; with 6 the
    // bound is the paper's.
    val rnd = new scala.util.Random(17)
    val z = 8
    val model = new TopicModel(z, 12, Array.fill(z) { val w = Array.fill(12)(rnd.nextDouble()); w.map(_ / w.sum) })
    val built = scala.collection.mutable.ArrayBuffer.empty[Element]
    (0 until 300).foreach { i =>
      val e =
        if (i % 4 == 3) built(rnd.nextInt(built.length)).copy(id = i.toLong, ts = 1L + i / 10, refs = Array.empty)
        else {
          val topics = rnd.shuffle((0 until z).toList).take(1 + rnd.nextInt(TopicModel.MaxTopics)).sorted
          val w = topics.map(_ => 0.05 + rnd.nextDouble())
          Element(i.toLong, 1L + i / 10, Array.fill(1 + rnd.nextInt(6))(rnd.nextInt(12)), Array.empty,
            SparseVec(topics.zip(w.map(_ / w.sum)): _*))
        }
      val refs = if (i > 0 && rnd.nextBoolean()) Array(built(rnd.nextInt(built.length)).id) else Array.empty[Long]
      built += e.copy(refs = refs.filter(_ < (e.ts - 1) * 10)) // only to earlier buckets
    }
    val eng = new KSirEngine(model, 1000, 0.5, 2.0)
    Bucket.bucketize(built.toSeq, 1, 30).foreach(eng.advance)
    val active = eng.activeElements.toArray
    var tighter = 0
    (0 until 40).foreach { trial =>
      val topics = rnd.shuffle((0 until z).toList).take(1 + trial % (TopicModel.MaxTopics + 1))
      val q = QueryVector(topics.map(t => t -> (if (trial % 3 == 0) 0.5 else 0.1 + rnd.nextDouble())): _*)
      val cursor = new RankedListCursor(eng, q)
      val retrieved = scala.collection.mutable.Set.empty[Long]
      var step = 0
      while (!cursor.exhausted) {
        val ub = cursor.upperBound
        if (ub < cursor.paperUpperBound) tighter += 1
        if (q.d > TopicModel.MaxTopics) assert(ub == cursor.paperUpperBound)
        active.foreach { e =>
          if (!retrieved(e.elem.id)) assert(eng.deltaScore(e, q) <= ub, s"trial $trial step $step e${e.elem.id}")
        }
        retrieved += cursor.popMax().elem.id
        step += 1
      }
      assert(cursor.upperBound == 0.0, s"trial $trial")
    }
    assert(tighter > 0)
  }

  test("on a query with more than TopicModel.MaxTopics topics, upperBound is the paper's bound") {
    for (seed <- 0L to 4L) {
      val e = PropStreams.engine(seed)
      val q = QueryVector((0 until TopicModel.MaxTopics + 1).map(t => t -> (0.1 + t)): _*)
      val cursor = new RankedListCursor(e, q)
      while (!cursor.exhausted) {
        assert(java.lang.Double.doubleToRawLongBits(cursor.upperBound) == java.lang.Double.doubleToRawLongBits(cursor.paperUpperBound))
        cursor.popMax()
      }
    }
  }
}
