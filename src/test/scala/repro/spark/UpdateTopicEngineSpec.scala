package repro.spark

import org.apache.spark.api.java.Optional
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Bucket, Element, KSirEngine, TopicModel}
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}

/** The stateful operator's full ranked lists equal the engine's bit for bit.
  * `updateTopic` is driven through Spark's TestGroupState, with no SparkSession,
  * once per topic per bucket from `events()`, and every emitted (id, δ) is
  * compared in order with `KSirEngine.rankedList` under
  * `doubleToRawLongBits`.
  */
class UpdateTopicEngineSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Replays the stream through both; returns the entries compared and the
    * resurrections seen (ids back in a topic's state after leaving it).
    */
  private def replay(
      model: TopicModel,
      elements: Seq[Element],
      bucketLen: Long,
      endTs: Long,
      window: Long,
      lambda: Double,
      eta: Double,
  ): (Int, Int) = {
    val buckets = Bucket.bucketize(elements, bucketLen, endTs)
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
}
