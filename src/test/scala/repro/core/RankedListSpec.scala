package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{SocialStreamGen, StreamConfig}
import scala.collection.mutable

/** The chunked ranked list against a `TreeSet` in the same order, the cursor
  * against the §4.1 traversal over `TreeSet` snapshots of the lists and a
  * scan of A_t's supports, and a
  * guard that list upkeep, single-topic pops and the cursor's bound allocate
  * nothing.
  */
class RankedListSpec extends AnyFunSuite {

  /** List order: score descending by `java.lang.Double.compare`, then id
    * descending.
    */
  private val ListOrder: Ordering[(Double, Long)] =
    Ordering.Tuple2(Ordering.Double.TotalOrdering.reverse, Ordering.Long.reverse)

  /** A stream on 8 topics, so each list holds a few hundred entries, with
    * references reaching back past the window, so elements are resurrected.
    */
  private def stream(seed: Long) = SocialStreamGen.generate(StreamConfig(
    name = "lists", nElements = 3000, vocabSize = 500, z = 8, avgLen = 8, avgRefs = 1.5,
    spanSeconds = 3600, refLookback = 3600, seed = seed))

  /** Size and full order equal the reference; every chunk is non-empty,
    * within capacity, and sorted within and across chunks.
    */
  private def check(list: RankedList, ref: mutable.TreeSet[(Double, Long)], what: String): Unit = {
    assert(list.size == ref.size, what)
    assert(list.iterator.sameElements(ref), what)
    val bad = mutable.ArrayBuffer.empty[String]
    var prev: (Double, Long) = null
    (0 until list.chunkCount).foreach { c =>
      val ch = list.chunk(c)
      if (ch.n < 1 || ch.n > ch.scores.length) bad += s"chunk $c holds ${ch.n}"
      (0 until ch.n).foreach { p =>
        val e = (ch.scores(p), ch.ids(p))
        if (prev != null && !ListOrder.lt(prev, e)) bad += s"$prev then $e"
        prev = e
      }
    }
    assert(bad.isEmpty, s"$what: $bad")
  }

  test("random adds and removes keep the TreeSet's order and set semantics") {
    // Few distinct scores, so ties by id are common; -0.0 sits next to 0.0.
    val scores = Array(1.0, 0.5, 0.25, 0.0, -0.0, 3e-9, 0.5000000000000001)
    val ids = (-40L to 260L) ++ Seq(Long.MinValue, Long.MaxValue)
    Seq(1L, 2L).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val list = new RankedList
      val ref = mutable.TreeSet.empty[(Double, Long)](ListOrder)
      var maxChunks = 0
      (0 until 4000).foreach { step =>
        // Grow for the first half, then shrink, so the list splits and drains.
        val addBias = if (step < 2000) 0.7 else 0.3
        if (rnd.nextDouble() < addBias) {
          val e = (scores(rnd.nextInt(scores.length)), ids(rnd.nextInt(ids.length)))
          list.add(e._1, e._2)
          ref += e
        } else if (ref.nonEmpty && rnd.nextBoolean()) {
          val e = ref.toSeq(rnd.nextInt(ref.size))
          list.remove(e._1, e._2)
          ref -= e
        } else {
          // Usually absent; a present entry is removed from both.
          val e = (scores(rnd.nextInt(scores.length)), ids(rnd.nextInt(ids.length)))
          list.remove(e._1, e._2)
          ref -= e
        }
        if (rnd.nextInt(10) == 0 && ref.nonEmpty) {
          val e = ref.head
          list.add(e._1, e._2)
        }
        maxChunks = math.max(maxChunks, list.chunkCount)
        check(list, ref, s"seed $seed step $step")
      }
      assert(maxChunks >= 4, s"seed $seed: the list never split into several chunks")
    }
  }

  test("a chunk emptied at the first, a middle and the last position is dropped") {
    val list = new RankedList
    val ref = mutable.TreeSet.empty[(Double, Long)](ListOrder)
    val rnd = new scala.util.Random(7)
    (0L until 400L).foreach { id =>
      val s = rnd.nextInt(50) / 10.0
      list.add(s, id)
      ref += ((s, id))
    }
    check(list, ref, "built")
    assert(list.chunkCount >= 5)
    def drain(c: Int, what: String): Unit = {
      val before = list.chunkCount
      val ch = list.chunk(c)
      val entries = (0 until ch.n).map(p => (ch.scores(p), ch.ids(p)))
      // Remove in an order that takes the first, last and middle slots.
      rnd.shuffle(entries).foreach { e =>
        list.remove(e._1, e._2)
        ref -= e
        check(list, ref, s"$what after removing $e")
      }
      assert(list.chunkCount == before - 1, what)
    }
    drain(list.chunkCount / 2, "middle chunk")
    drain(0, "first chunk")
    drain(list.chunkCount - 1, "last chunk")
    while (list.chunkCount > 0) drain(0, "remaining chunks")
    assert(list.size == 0 && list.iterator.isEmpty)
    list.add(1.0, 1L)
    ref += ((1.0, 1L))
    check(list, ref, "re-filled")
  }

  /** The §4.1 traversal over `TreeSet` snapshots: per list an iterator, a
    * head skipping visited ids, pops by the argmax of x_i·δ_i, and a bound
    * that is the largest sum of live head terms over `patterns`, the sets of
    * list slots that active elements' supports cover, or every live term for
    * d > `TopicModel.MaxTopics`.
    */
  private final class ReferenceCursor(snapshots: Array[mutable.TreeSet[(Double, Long)]], x: Array[Double], patterns: Set[Seq[Int]]) {
    private val visited = mutable.HashSet.empty[Long]
    private val iters = snapshots.map(_.iterator)
    private val heads = new Array[(Double, Long)](x.length)
    var retrievedCount = 0
    x.indices.foreach(advance)

    private def advance(j: Int): Unit = {
      heads(j) = null
      while (heads(j) == null && iters(j).hasNext) {
        val e = iters(j).next()
        if (!visited.contains(e._2)) heads(j) = e
      }
    }

    /** The live terms x_j·δ_j of the slots `js`, summed in list order. */
    private def sum(js: Seq[Int]): Double = js.filter(heads(_) != null).foldLeft(0.0)((ub, j) => ub + x(j) * heads(j)._1)

    /** The paper's UB: every live term x_j·δ_j, summed in list order. */
    def paperUpperBound: Double = sum(x.indices)

    def upperBound: Double =
      if (x.length > TopicModel.MaxTopics) paperUpperBound else patterns.foldLeft(0.0)((ub, p) => math.max(ub, sum(p)))

    def exhausted: Boolean = heads.forall(_ == null)

    /** The popped id, or -1 when exhausted. */
    def popMax(): Long = {
      var best = -1
      var bestVal = -1.0
      x.indices.foreach { j =>
        if (heads(j) != null && x(j) * heads(j)._1 > bestVal) { bestVal = x(j) * heads(j)._1; best = j }
      }
      if (best < 0) return -1L
      val id = heads(best)._2
      visited += id
      retrievedCount += 1
      x.indices.foreach(j => if (heads(j) != null && heads(j)._2 == id) advance(j))
      id
    }
  }

  test("the cursor pops, bounds and counts as the traversal over TreeSet snapshots") {
    Seq(41L, 42L).foreach { seed =>
      val g = stream(seed)
      val eng = new KSirEngine(g.model, 1200L, 0.5, 5.0)
      val rnd = new scala.util.Random(seed)
      var queries = 0
      var tighter = 0
      Bucket.bucketize(g.elements, 300, 3600).zipWithIndex.foreach { case (b, bi) =>
        eng.advance(b)
        if (bi >= 3) {
          // Snapshots and patterns built from A_t, not from the lists or the
          // counts under test.
          val snap = Array.fill(g.model.z)(mutable.TreeSet.empty[(Double, Long)](ListOrder))
          eng.activeElements.foreach(ae => ae.elem.topics.idx.foreach(t => snap(t) += ((ae.delta(t), ae.elem.id))))
          assert(snap.exists(_.size > 3 * 64), "some list spans several chunks")
          (0 until 8).foreach { _ =>
            val topics = Seq.fill(1 + rnd.nextInt(TopicModel.MaxTopics))(rnd.nextInt(g.model.z)).distinct.sorted
            val w = topics.map(_ => 0.1 + rnd.nextDouble())
            val q = QueryVector(topics.zip(w.map(_ / w.sum)): _*)
            val patterns = eng.activeElements.map(ae => q.entries.idx.indices.filter(j => ae.topics(q.entries.idx(j)) > 0.0)).toSet[Seq[Int]]
            val cursor = new RankedListCursor(eng, q)
            val want = new ReferenceCursor(q.entries.idx.map(snap), q.entries.v, patterns)
            var step = 0
            var done = false
            var tight = false
            while (!done) {
              val what = s"seed $seed t=${b.endTs} query ${q.entries.toSeq} step $step"
              assert(cursor.exhausted == want.exhausted, what)
              assert(cursor.upperBound == want.upperBound, what)
              assert(cursor.paperUpperBound == want.paperUpperBound, what)
              tight ||= want.upperBound < want.paperUpperBound
              val ae = cursor.popMax()
              val id = want.popMax()
              assert((if (ae == null) -1L else ae.elem.id) == id, what)
              assert(cursor.retrievedCount == want.retrievedCount, what)
              done = ae == null
              step += 1
            }
            queries += 1
            if (tight) tighter += 1
          }
        }
      }
      assert(queries > 0 && tighter > 0, s"$queries queries, $tighter with a bound below the paper's")
    }
  }

  private def allocatedPerCall(calls: Int)(run: => Unit): Double = {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread().getId
    val a0 = bean.getThreadAllocatedBytes(tid)
    run
    val a1 = bean.getThreadAllocatedBytes(tid)
    (a1 - a0).toDouble / calls
  }

  test("a remove and an add without a split allocate nothing once warmed up") {
    val rnd = new scala.util.Random(5)
    val n = 2000
    val scores = Array.fill(n)(rnd.nextDouble())
    val list = new RankedList
    (0 until n).foreach(i => list.add(scores(i), i.toLong))
    assert(list.chunkCount >= 8)
    val order = Array.fill(10000)(rnd.nextInt(n))
    // Re-adding the removed entry lands in the chunk it left, which has room.
    def run(): Unit = {
      var i = 0
      while (i < order.length) {
        val e = order(i)
        list.remove(scores(e), e.toLong)
        list.add(scores(e), e.toLong)
        i += 1
      }
    }
    (0 until 5).foreach(_ => run())
    val chunks = list.chunkCount
    val perCall = allocatedPerCall(order.length)(run())
    assert(list.size == n && list.chunkCount == chunks)
    assert(perCall < 8.0, s"remove + add allocated $perCall bytes per call")
  }

  test("a single-topic popMax allocates nothing once warmed up") {
    val g = stream(31L)
    val eng = new KSirEngine(g.model, 1200L, 0.5, 5.0)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    val topic = (0 until g.model.z).maxBy(eng.rankedListSize)
    val size = eng.rankedListSize(topic)
    assert(size > 3 * 64, s"largest list has $size entries")
    val q = QueryVector(topic -> 1.0)
    def drain(cursors: Array[RankedListCursor]): Int = {
      var pops = 0
      cursors.foreach(c => while (c.popMax() != null) pops += 1)
      pops
    }
    (0 until 5).foreach(_ => drain(Array.fill(20)(new RankedListCursor(eng, q))))
    val cursors = Array.fill(math.max(1, 10000 / size))(new RankedListCursor(eng, q))
    var pops = 0
    val perCall = allocatedPerCall(cursors.length * size) { pops = drain(cursors) }
    assert(pops == cursors.length * size)
    assert(perCall < 8.0, s"popMax allocated $perCall bytes per call")
  }

  test("upperBound with more live heads than m allocates nothing once warmed up") {
    val g = stream(31L)
    val eng = new KSirEngine(g.model, 1200L, 0.5, 5.0)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    val topics = (0 until g.model.z).sortBy(t => -eng.rankedListSize(t)).take(TopicModel.MaxTopics)
    val q = QueryVector(topics.map(t => t -> 0.2): _*)
    assert(q.d > eng.activeElements.map(_.topics.idx.length).max)
    val cursor = new RankedListCursor(eng, q)
    cursor.popMax()
    val paper = cursor.paperUpperBound
    var sink = 0.0
    def run(): Unit = { var i = 0; while (i < 10000) { sink += cursor.upperBound; i += 1 } }
    (0 until 5).foreach(_ => run())
    val perCall = allocatedPerCall(10000)(run())
    assert(cursor.upperBound < paper, "no active element covers every queried topic")
    assert(sink > 0.0 && perCall < 8.0, s"upperBound allocated $perCall bytes per call")
  }
}
