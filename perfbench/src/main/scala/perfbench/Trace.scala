package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Spans recorded by the traced run, kept in memory and written out as JSON
  * lines when the run ends. Every span carries the run id; `parent` is the id
  * of the span that caused it, or -1 for a top-level call.
  */
final class Tracer(val runId: String) {
  import Tracer.Span
  private val spans = ArrayBuffer.empty[Span]

  def record(parent: Int, name: String, start: Long, end: Long, attrs: (String, Double)*): Int = {
    spans += Span(spans.length, parent, name, start, end, attrs)
    spans.length - 1
  }

  def size: Int = spans.length

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      Json.obj(Seq("run" -> Json.str(runId), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_ns" -> s.start.toString, "end_ns" -> s.end.toString) ++
        s.attrs.map { case (k, v) => k -> Json.num(v) })
    }
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}

object Tracer {
  private final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long, attrs: Seq[(String, Double)])
}

/** JVM counters read at layer boundaries by the traced run. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val memory = ManagementFactory.getMemoryMXBean

  /** Bytes allocated so far by the calling thread. */
  def allocated: Long = threads.getCurrentThreadAllocatedBytes

  def gcCount: Long = gcs.map(_.getCollectionCount max 0L).sum
  def gcMillis: Long = gcs.map(_.getCollectionTime max 0L).sum

  /** Heap in use after full collections. */
  def liveHeap: Long = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    memory.getHeapMemoryUsage.getUsed
  }
}
