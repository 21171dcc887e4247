package repro.spark

import repro.SparkSpec
import repro.core._
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import java.nio.file.Files

/** The Structured Streaming stateful ranked lists must track the driver
  * engine (the single-node reference implementation) bucket for bucket.
  */
class StreamingRankedListsSpec extends SparkSpec {

  private val TopN = 30

  /** Drive the streaming pipeline one micro-batch per bucket and compare the
    * emitted per-topic lists with the engine's after every bucket.
    */
  private def compareStreamVsEngine(
      model: TopicModel,
      elements: Seq[Element],
      bucketLen: Long,
      endTs: Long,
      window: Long,
      lambda: Double,
      eta: Double,
  ): Unit = {
    import spark.implicits._
    val buckets = Bucket.bucketize(elements, bucketLen, endTs)
    val allEvents = StreamingRankedLists.events(model, buckets).groupBy(_.bucketEnd)
    val engine = new KSirEngine(model, window, lambda, eta)

    val input = MemoryStream[TopicEvent](spark)
    val out = StreamingRankedLists.pipeline(spark, input.toDS(), window, lambda, eta, TopN)
    val ckpt = Files.createTempDirectory("rl-ckpt").toString
    val name = s"rl_${System.nanoTime()}"
    val query = out.writeStream
      .format("memory").queryName(name).outputMode("update")
      .option("checkpointLocation", ckpt)
      .start()
    try {
      buckets.foreach { b =>
        input.addData(allEvents.getOrElse(b.endTs, Seq.empty))
        query.processAllAvailable()
        engine.advance(b)

        val emitted = spark.table(name)
          .where($"bucketEnd" === b.endTs)
          .collect()
          .map(r => (r.getInt(0), r.getInt(2), r.getLong(3), r.getDouble(4)))
          .groupBy(_._1)
        (0 until model.z).foreach { t =>
          val got = emitted.getOrElse(t, Array.empty).sortBy(_._2).map(e => (e._3, e._4)).toSeq
          val want = engine.rankedList(t).take(TopN).map { case (s, id) => (id, s) }.toSeq
          assert(got.map(_._1) == want.map(_._1),
            s"bucket ${b.endTs} topic $t: stream=${got.map(_._1)} engine=${want.map(_._1)}")
          got.zip(want).foreach { case ((_, s1), (_, s2)) =>
            assert(math.abs(s1 - s2) < 1e-9, s"bucket ${b.endTs} topic $t score $s1 vs $s2")
          }
        }
      }
    } finally query.stop()
  }

  test("paper example stream: streaming state matches the engine at every bucket") {
    compareStreamVsEngine(PaperExample.model, PaperExample.elements,
      bucketLen = 1, endTs = 8, window = 4, lambda = 0.5, eta = 2.0)
  }

  test("synthetic stream with expiry and resurrection: streaming matches engine") {
    val g = SocialStreamGen.generate(StreamConfig("stream", 120, 150, 5, 5, 1.5, 900, 900, seed = 33L))
    compareStreamVsEngine(g.model, g.elements,
      bucketLen = 100, endTs = 900, window = 300, lambda = 0.5, eta = 5.0)
  }

  test("sparse-reference stream (twitter-like) matches engine") {
    val g = SocialStreamGen.generate(StreamConfig("tw", 150, 150, 5, 4, 0.6, 600, 300, seed = 35L))
    compareStreamVsEngine(g.model, g.elements,
      bucketLen = 150, endTs = 600, window = 450, lambda = 0.5, eta = 5.0)
  }

  test("event builder routes ref events to the parent's topics") {
    val buckets = Bucket.bucketize(PaperExample.elements, 1, 8)
    val events = StreamingRankedLists.events(PaperExample.model, buckets)
    // e4 refs e3; e3 has support on both topics, so two ref events exist.
    val e4refs = events.filter(_.elem.exists(_.children.exists(_.childId == 4L)))
    assert(e4refs.map(_.topic).toSet == Set(0, 1))
    assert(e4refs.forall(_.elem.get.id == 3L))
    // The ref event carries p_i(child): e4 has p_2 = 0 on topic 1.
    assert(e4refs.find(_.topic == 1).get.elem.get.children.map(_.pChild) == List(0.0))
    assert(e4refs.find(_.topic == 0).get.elem.get.children.map(_.pChild) == List(1.0))
  }

  test("event builder emits one insert per supported topic") {
    val buckets = Bucket.bucketize(PaperExample.elements, 1, 8)
    val events = StreamingRankedLists.events(PaperExample.model, buckets)
    val inserts = events.flatMap(_.elem).filter(_.children.isEmpty)
    assert(inserts.count(_.id == 4L) == 1) // e4 is θ1-only
    assert(inserts.count(_.id == 1L) == 2)
  }

  test("ticks are emitted for every topic in every bucket") {
    val buckets = Bucket.bucketize(PaperExample.elements, 2, 8)
    val events = StreamingRankedLists.events(PaperExample.model, buckets)
    val ticks = events.filter(_.elem.isEmpty)
    assert(ticks.size == buckets.size * PaperExample.model.z)
  }
}
