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
    // Queries with more topics than any active element has (m), where the
    // bound keeps only the m largest terms.
    for (seed <- 0L to 4L) {
      val e = PropStreams.engine(seed)
      val rnd = new scala.util.Random(seed)
      (0 until 10).foreach { _ =>
        val topics = rnd.shuffle((0 until 8).toList).take(4 + rnd.nextInt(2))
        val q = QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
        assert(q.d > e.maxSupport, s"seed=$seed")
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

  test("with more live heads than m, upperBound keeps the lower list index of two tied terms") {
    // Queried topics 0..3 have heads c, a, b, c with a > b > c: e1 heads
    // lists 0 and 3 on equal δ and equal x. e4 sits off the query on three
    // topics, so m = 3 and one of the two c terms is left out. In list order
    // the rule sums (c + a) + b; taking the c of list 3 would sum (a + b) + c.
    val model = new TopicModel(7, 4, Array.fill(7)(Array.fill(4)(0.25)))
    def el(id: Long, topics: (Int, Double)*) = Element(id, 1, Array(0, 1, 1), Array.empty, SparseVec(topics: _*))
    val e = new KSirEngine(model, 10, 0.5, 2.0)
    e.advance(Bucket(1, Seq(
      el(1, 0 -> 0.5, 3 -> 0.5), el(2, 1 -> 1.0), el(3, 2 -> 1.0), el(4, 4 -> 0.25, 5 -> 0.25, 6 -> 0.5))))
    assert(e.maxSupport == 3)
    def head(topic: Int): Double = e.rankedList(topic).next()._1
    assert(java.lang.Double.doubleToRawLongBits(head(0)) == java.lang.Double.doubleToRawLongBits(head(3)))
    val c = head(0)
    // x_1 and x_2 put a in (2c, 3c) and b in (1.1c, 1.9c); the first draw
    // whose two sums differ in the last bits is used.
    val rnd = new scala.util.Random(7)
    val (xa, xb) = Iterator.fill(1000)(((2 + rnd.nextDouble()) * c / head(1), (1.1 + 0.8 * rnd.nextDouble()) * c / head(2)))
      .find { case (xa, xb) => val (a, b) = (xa * head(1), xb * head(2)); (c + a) + b != (a + b) + c }
      .get
    val (a, b) = (xa * head(1), xb * head(2))
    assert(a > b && b > c)
    val cursor = new RankedListCursor(e, QueryVector(0 -> 1.0, 1 -> xa, 2 -> xb, 3 -> 1.0))
    assert(java.lang.Double.doubleToRawLongBits(cursor.upperBound) == java.lang.Double.doubleToRawLongBits((c + a) + b))
    assert(cursor.paperUpperBound == ((c + a) + b) + c)
  }
}

