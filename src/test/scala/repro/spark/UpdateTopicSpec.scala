package repro.spark

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}

/** Direct unit tests of the stateful operator function (no streaming query
  * needed — Spark's TestGroupState drives it), covering insert, ref update,
  * expiry, resurrection, and emission order.
  */
class UpdateTopicSpec extends AnyFunSuite {

  private val T = 10L
  private val update = StreamingRankedLists.updateTopic(T, lambda = 0.5, eta = 2.0, topN = 10) _

  private def state(s: Option[TopicListState] = None): TestGroupState[TopicListState] = {
    import org.apache.spark.api.java.Optional
    TestGroupState.create[TopicListState](
      s.map(Optional.of[TopicListState]).getOrElse(Optional.empty[TopicListState]()),
      GroupStateTimeout.NoTimeout, 0L, Optional.empty[Long](), false)
  }

  private def insert(id: Long, ts: Long, r: Double, p: Double, bucketEnd: Long) =
    TopicEvent(0, bucketEnd, Some(StatefulElem(id, ts, r, p, Nil)))

  private def ref(child: Long, ts: Long, pChild: Double, parent: Long, bucketEnd: Long,
      parentTs: Long = 0L, parentR: Double = 0.0, parentP: Double = 0.0) =
    TopicEvent(0, bucketEnd, Some(StatefulElem(parent, parentTs, parentR, parentP, List(ChildEntry(child, ts, pChild)))))

  private def tick(bucketEnd: Long) = TopicEvent(0, bucketEnd, None)

  test("insert emits a ranked entry with δ = λ·R") {
    val s = state()
    val out = update(0, Iterator(insert(1, 1, r = 2.0, p = 0.8, bucketEnd = 1)), s).toSeq
    assert(out == Seq(RankedEntry(0, 1, 1, 1, 1.0)))
    assert(s.get.elems.keySet == Set(1L))
  }

  test("a bucket ending before 0 keeps the elements of its window") {
    val s = state()
    val out = update(0, Iterator(insert(1, -12, r = 2.0, p = 0.8, bucketEnd = -10)), s).toSeq
    assert(out == Seq(RankedEntry(0, -10, 1, 1, 1.0)))
  }

  test("a ref adds the influence term to the parent's δ") {
    val s = state()
    update(0, Iterator(insert(1, 1, 2.0, 0.8, 1)), s).toSeq
    val out = update(0, Iterator(insert(2, 2, 1.0, 0.5, 2), ref(2, 2, 0.5, 1, 2)), s).toSeq
    // δ(e1) = 0.5·2.0 + (0.5/2)·(0.8·0.5) = 1.0 + 0.1 = 1.1
    val e1 = out.find(_.elem == 1L).get
    assert(math.abs(e1.delta - 1.1) < 1e-12)
    assert(e1.rank == 1)
  }

  test("elements never referred inside the window expire") {
    val s = state()
    update(0, Iterator(insert(1, 1, 2.0, 0.8, 1)), s).toSeq
    val out = update(0, Iterator(tick(11)), s).toSeq // window start 2 > ts 1
    assert(out.isEmpty)
    assert(s.get.elems.isEmpty)
  }

  test("a referred element outlives its own timestamp") {
    val s = state()
    update(0, Iterator(insert(1, 1, 2.0, 0.8, 1)), s).toSeq
    update(0, Iterator(insert(2, 8, 1.0, 0.5, 8), ref(2, 8, 0.5, 1, 8)), s).toSeq
    val out = update(0, Iterator(tick(12)), s).toSeq // window [3,12]: e1 kept by its child e2 (ts 8)
    assert(out.map(_.elem).contains(1L))
  }

  test("children expire out of the influence sum") {
    val s = state()
    update(0, Iterator(insert(1, 1, 2.0, 0.8, 1)), s).toSeq
    update(0, Iterator(insert(2, 3, 1.0, 0.5, 3), ref(2, 3, 0.5, 1, 3)), s).toSeq
    // At bucket 12 (window [3,12]) the child e2 (ts 3) is still in...
    var out = update(0, Iterator(tick(12)), s).toSeq
    assert(math.abs(out.find(_.elem == 1L).get.delta - 1.1) < 1e-12)
    // ...at bucket 13 (window [4,13]) it is gone, and so is e1 (ts 1, no child left).
    out = update(0, Iterator(tick(13)), s).toSeq
    assert(!out.map(_.elem).contains(1L))
  }

  test("a discarded parent is resurrected by a later ref event") {
    val s = state()
    update(0, Iterator(insert(1, 1, 2.0, 0.8, 1)), s).toSeq
    update(0, Iterator(tick(12)), s).toSeq // e1 expired
    assert(s.get.elems.isEmpty)
    val out = update(0,
      Iterator(insert(3, 13, 1.0, 0.5, 13), ref(3, 13, 0.5, 1, 13, parentTs = 1, parentR = 2.0, parentP = 0.8)),
      s).toSeq
    val e1 = out.find(_.elem == 1L)
    assert(e1.isDefined, "parent resurrected from the ref snapshot")
    assert(math.abs(e1.get.delta - 1.1) < 1e-12)
  }

  test("emission is rank-ordered by (δ desc, id desc)") {
    val s = state()
    val out = update(0, Iterator(
      insert(1, 1, 1.0, 1.0, 1),
      insert(2, 1, 3.0, 1.0, 1),
      insert(3, 1, 1.0, 1.0, 1), // tie with e1 → higher id first
    ), s).toSeq
    assert(out.map(_.elem) == Seq(2L, 3L, 1L))
    assert(out.map(_.rank) == Seq(1, 2, 3))
  }

  test("topN truncates the emission but not the state") {
    val narrow = StreamingRankedLists.updateTopic(T, 0.5, 2.0, topN = 2) _
    val s = state()
    val out = narrow(0, Iterator(
      insert(1, 1, 1.0, 1.0, 1), insert(2, 1, 2.0, 1.0, 1), insert(3, 1, 3.0, 1.0, 1)), s).toSeq
    assert(out.size == 2)
    assert(s.get.elems.size == 3)
  }

  test("out-of-order iterator input is replayed in timestamp order") {
    val s = state()
    // The ref at ts 2 must apply after the insert at ts 1 even if the
    // iterator presents them reversed.
    val out = update(0, Iterator(
      ref(2, 2, 0.5, 1, 2),
      insert(2, 2, 1.0, 0.5, 2),
      insert(1, 1, 2.0, 0.8, 2),
    ), s).toSeq
    assert(math.abs(out.find(_.elem == 1L).get.delta - 1.1) < 1e-12)
  }
}
