package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.bench.BenchData
import repro.core.Bucket
import repro.spark.{StreamingRankedLists, TopicEvent}

/** spark-submit entrypoint running the Structured Streaming ranked-list
  * pipeline (the distributed rendering of Algorithm 1) over a synthetic
  * stream, one micro-batch per 15-minute bucket, printing the top of a few
  * topics' ranked lists as the window slides, and after each micro-batch
  * the state operator's row count, state-store memory and update time.
  *
  * Usage: spark-submit --class repro.jobs.StreamingJob repro.jar [nBuckets]
  */
object StreamingJob {
  def main(args: Array[String]): Unit = {
    val nBuckets = args.headOption.map(_.toInt).getOrElse(12)
    val spark = SparkSession.builder.appName("ksir-streaming")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    import spark.implicits._
    try {
      val ds = BenchData.twitter
      val buckets: Seq[Bucket] = ds.buckets.take(nBuckets)
      val events = StreamingRankedLists.events(ds.gen.model, buckets).groupBy(_.bucketEnd)

      // One stateful task per topic key at most, rather than Spark's default
      // 200 shuffle partitions (each a task and a state-store commit per
      // micro-batch) for z keys.
      spark.conf.set("spark.sql.shuffle.partitions",
        math.min(ds.gen.model.z, spark.sparkContext.defaultParallelism).toLong)
      val input = MemoryStream[TopicEvent](spark)
      val out = StreamingRankedLists.pipeline(
        spark, input.toDS(), BenchData.WindowT, BenchData.Lambda, ds.eta, topN = 5)
      val ckpt = java.nio.file.Files.createTempDirectory("ksir-ckpt").toString
      val query = out.writeStream
        .format("memory").queryName("ranked_lists").outputMode("update")
        .option("checkpointLocation", ckpt)
        .start()
      buckets.foreach { b =>
        input.addData(events.getOrElse(b.endTs, Seq.empty))
        query.processAllAvailable()
        val top = spark.table("ranked_lists")
          .where($"bucketEnd" === b.endTs && $"topic" < 3)
          .orderBy($"topic", $"rank")
          .collect()
        println(s"--- bucket t=${b.endTs} (${b.elements.size} arrivals) ---")
        top.foreach(r => println(f"  topic ${r.getInt(0)}%2d  #${r.getInt(2)}  e${r.getLong(3)}%-6d δ=${r.getDouble(4)}%.4f"))
        val p = query.lastProgress
        p.stateOperators.foreach(s => println(s"  state: ${s.numRowsTotal} rows, ${s.memoryUsedBytes} B, " +
          s"${s.allUpdatesTimeMs} ms updating; trigger ${p.durationMs.get("triggerExecution")} ms"))
      }
      query.stop()
    } finally spark.stop()
  }
}
