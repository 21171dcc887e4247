package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PaperExample
import repro.baselines.Celf

/** MTTD-specific behaviour: descending-threshold rounds, buffer reuse,
  * termination, parameter edges.
  */
class MTTDSpec extends AnyFunSuite {

  private val eng = PaperExample.engineAt(8)
  private val q = QueryVector(0 -> 0.5, 1 -> 0.5)

  test("MTTD is deterministic") {
    val a = MTTD.query(eng, q, 2, 0.3)
    val b = MTTD.query(eng, q, 2, 0.3)
    assert(a.elements == b.elements && a.score == b.score)
  }

  test("k larger than the active count terminates via the τ' rule") {
    val res = MTTD.query(eng, q, 100, 0.1)
    assert(res.elements.size <= eng.activeCount)
    assert(res.score > 0)
  }

  test("tiny ε still terminates (τ' floor is proportional to ε/k)") {
    val res = MTTD.query(eng, q, 2, 0.005)
    assert(res.elements.nonEmpty)
  }

  test("large ε terminates quickly and returns a result") {
    val res = MTTD.query(eng, q, 2, 0.95)
    assert(res.elements.nonEmpty)
  }

  test("score equals a from-scratch evaluation of the returned set") {
    val res = MTTD.query(eng, q, 3, 0.2)
    assert(math.abs(res.score - eng.evaluate(res.elements, q)) < 1e-9)
  }

  test("the paper's trace: stops as soon as |S| = k") {
    // Example 5: S fills with e3 then e1 in round 3; e2 stays buffered.
    val res = MTTD.query(eng, q, 2, 0.3)
    assert(res.elements.toSet == Set(1L, 3L))
    assert(res.elements.size == 2)
  }

  test("greedy order: first added element has the max marginal (singleton) gain among returned") {
    val res = MTTD.query(eng, q, 3, 0.05)
    val first = res.elements.head
    // With a fine threshold mesh, the first pick approaches the best
    // singleton (within one (1-ε) threshold step).
    val bestSingleton = eng.activeElements.map(ae => eng.deltaScore(ae, q)).max
    val firstScore = eng.deltaScore(eng.activeElement(first).get, q)
    assert(firstScore >= (1 - 0.05) * bestSingleton - 1e-9)
  }

  test("bound vs CELF across synthetic engines and ks") {
    for (seed <- 0L to 4L; k <- 1 to 4; q <- PropStreams.queries(seed)) {
      val e = PropStreams.engine(seed)
      val celf = Celf.query(e, q, k).score
      val res = MTTD.query(e, q, k, 0.1)
      assert(res.score >= (1 - 1 / math.E - 0.1) * celf - 1e-9,
        s"seed=$seed k=$k: mttd=${res.score} celf=$celf")
    }
  }

  test("MTTD may evaluate an element more than once but reports distinct counts") {
    for (seed <- 0L to 4L) {
      val e = PropStreams.engine(seed)
      val q = PropStreams.queries(seed).head
      val res = MTTD.query(e, q, 5, 0.2)
      assert(res.evaluated <= e.activeCount, "evaluated counts distinct elements")
      assert(res.retrieved <= e.activeCount)
    }
  }

  test("empty-topic query returns empty without looping") {
    val model = new TopicModel(3, 4, Array(
      Array(0.5, 0.5, 0, 0), Array(0, 0, 0.5, 0.5), Array(0.25, 0.25, 0.25, 0.25)))
    val e = new KSirEngine(model, 10, 0.5, 1.0)
    e.advance(Bucket(1, Seq(Element(1, 1, Array(0), Array.empty, SparseVec(0 -> 1.0)))))
    assert(MTTD.query(e, QueryVector(1 -> 1.0), 2, 0.1).elements.isEmpty)
  }

  test("the buffer dequeues equal gains in mutable.PriorityQueue's order") {
    val elems = eng.activeElements.toArray
    val rnd = new scala.util.Random(3)
    val gains = Array(0.0, -0.0, 0.1, 0.2, 0.2, 0.3)
    (0 until 50).foreach { round =>
      val heap = new GainHeap
      // By gain, then by id, smaller first.
      val want = scala.collection.mutable.PriorityQueue.empty[(Double, ActiveElement)](
        Ordering.by[(Double, ActiveElement), (Double, Long)](e => (e._1, -e._2.elem.id))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)))
      (0 until 200).foreach { step =>
        if (want.nonEmpty && rnd.nextInt(3) == 0) {
          assert(heap.headGain == want.head._1, s"round $round step $step")
          assert(heap.dequeue() eq want.dequeue()._2, s"round $round step $step")
        } else {
          val e = (gains(rnd.nextInt(gains.length)), elems(rnd.nextInt(elems.length)))
          heap.enqueue(e._1, e._2)
          want.enqueue(e)
        }
      }
      while (want.nonEmpty) assert(heap.dequeue() eq want.dequeue()._2, s"round $round drain")
      assert(heap.isEmpty)
    }
  }
}
