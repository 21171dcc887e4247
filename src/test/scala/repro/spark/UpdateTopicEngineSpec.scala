package repro.spark

import org.apache.spark.api.java.Optional
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Bucket, Element, KSirEngine, SparseVec, TopicModel}
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}

/** The stateful operator's full ranked lists equal the engine's bit for bit.
  * `updateTopic` is driven through Spark's TestGroupState, with no SparkSession,
  * once per topic per bucket from `events()`, and every emitted (id, δ) is
  * compared in order with `KSirEngine.rankedList` under
  * `doubleToRawLongBits`.
  */
class UpdateTopicEngineSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Replays the stream, cut into buckets of length `bucketLen`, through both. */
  private def replay(
      model: TopicModel,
      elements: Seq[Element],
      bucketLen: Long,
      endTs: Long,
      window: Long,
      lambda: Double,
      eta: Double,
  ): (Int, Int) = replay(model, Bucket.bucketize(elements, bucketLen, endTs), window, lambda, eta)

  /** Replays the buckets through both; returns the entries compared and the
    * resurrections seen (ids back in a topic's state after leaving it).
    */
  private def replay(model: TopicModel, buckets: Seq[Bucket], window: Long, lambda: Double, eta: Double): (Int, Int) = {
    val events = StreamingRankedLists.events(model, buckets).groupBy(_.bucketEnd)
    val update = StreamingRankedLists.updateTopic(window, lambda, eta, topN = Int.MaxValue) _
    val engine = new KSirEngine(model, window, lambda, eta)
    val states = Array.fill(model.z)(TestGroupState.create[TopicListState](
      Optional.empty[TopicListState](), GroupStateTimeout.NoTimeout, 0L, Optional.empty[Long](), false))
    val seen = Array.fill(model.z)(scala.collection.mutable.LongMap.empty[Unit])
    var compared = 0
    var resurrected = 0
    buckets.foreach { b =>
      val byTopic = events.getOrElse(b.endTs, Nil).groupBy(_.topic)
      engine.advance(b)
      (0 until model.z).foreach { t =>
        val before = states(t).getOption.fold(Set.empty[Long])(_.elems.keySet)
        val got = update(t, byTopic.getOrElse(t, Nil).iterator, states(t)).map(e => (e.elem, e.delta)).toSeq
        val want = engine.rankedList(t).map { case (d, id) => (id, d) }.toSeq
        val at = got.indices.find(i => i >= want.size || got(i)._1 != want(i)._1 || bits(got(i)._2) != bits(want(i)._2))
        val same = got.size == want.size && at.isEmpty
        assert(same,
          s"bucket ${b.endTs} topic $t: ${got.size} vs ${want.size} entries, first difference at " +
            at.map(i => s"rank ${i + 1}: operator ${got(i)} engine ${want.lift(i)}").getOrElse("the end"))
        compared += got.size
        states(t).get.elems.keysIterator.foreach { id =>
          if (!before(id) && seen(t).contains(id)) resurrected += 1
          seen(t)(id) = ()
        }
      }
    }
    (compared, resurrected)
  }

  test("paper example stream: operator lists equal the engine's bit for bit") {
    val (compared, _) = replay(PaperExample.model, PaperExample.elements,
      bucketLen = 1, endTs = 8, window = 4, lambda = 0.5, eta = 2.0)
    assert(compared > 0)
  }

  test("synthetic stream with expiry and resurrection: operator lists equal the engine's bit for bit") {
    val g = SocialStreamGen.generate(StreamConfig("stream", 120, 150, 5, 5, 1.5, 900, 900, seed = 33L))
    val (compared, _) = replay(g.model, g.elements,
      bucketLen = 100, endTs = 900, window = 300, lambda = 0.5, eta = 5.0)
    assert(compared > 0)
  }

  test("sparse-reference stream (twitter-like): operator lists equal the engine's bit for bit") {
    val g = SocialStreamGen.generate(StreamConfig("tw", 150, 150, 5, 4, 0.6, 600, 300, seed = 35L))
    val (compared, _) = replay(g.model, g.elements,
      bucketLen = 150, endTs = 600, window = 450, lambda = 0.5, eta = 5.0)
    assert(compared > 0)
  }

  test("aminer-like stream with resurrections: operator lists equal the engine's bit for bit") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(4000, 86400L, 47L))
    // Minute timestamps, so children tie on ts and their id order matters.
    val elements = g.elements.map(e => e.copy(ts = (e.ts + 59) / 60 * 60))
    val (compared, resurrected) = replay(g.model, elements,
      bucketLen = 900, endTs = 86400, window = 10800, lambda = 0.5, eta = 0.6)
    assert(resurrected > 100, s"only $resurrected resurrections")
    info(s"$compared entries compared, $resurrected resurrections")
  }

  test("late elements: operator lists equal the engine's bit for bit") {
    def el(id: Long, ts: Long, p0: Double, refs: Long*): Element = Element(id, ts,
      Array(1 + (id % 16).toInt, 1 + (7 * id % 16).toInt, 10), refs.toArray,
      SparseVec(Seq((0, p0), (1, 1.0 - p0)).filter(_._2 > 0): _*))
    // T = 4, so the window of the bucket ending at t is [t - 3, t].
    val buckets = Seq(
      Bucket(2, Seq(el(1, 1, 0.2), el(2, 2, 0.6))),
      Bucket(4, Seq(el(3, 3, 0.9, 1), el(4, 4, 1.0))),
      Bucket(6, Seq(el(5, 6, 0.3), el(6, 5, 0.5, 3))), // e2 leaves
      Bucket(8, Seq(
        el(7, 5, 0.4, 5), // a child older than its parent e5, a bucket later
        el(8, 1, 0.7, 2), // older than the window: resurrects e2 (ts 2), and both leave at once
        el(9, 2, 0.1), // older than the window, kept by its child e10
        el(10, 7, 0.8, 9, 2), // keeps e9, and e2 through the resurrection by e8
        el(11, 8, 0.5, 20), // e20 is ingested only in the next bucket
      )),
      Bucket(10, Seq(el(20, 9, 0.6, 6), el(12, 6, 0.3, 5))), // e12: late, older than the window
      Bucket(12, Seq(el(13, 10, 0.2, 11))), // e11 stays by e13; its event checks e20 too
      Bucket(14, Seq.empty),
      Bucket(16, Seq(el(14, 13, 0.9, 20, 13))),
      Bucket(20, Seq.empty),
    )
    val (compared, resurrected) = replay(PaperExample.model, buckets, window = 4, lambda = 0.5, eta = 2.0)
    assert(compared > 0)
    assert(resurrected > 0)
  }
}
