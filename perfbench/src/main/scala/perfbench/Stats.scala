package perfbench

import scala.collection.mutable.ArrayBuffer

/** A growing sample of one measured quantity. */
final class Samples {
  private val xs = ArrayBuffer.empty[Double]
  def add(x: Double): Unit = xs += x
  def count: Int = xs.length
  private def sorted: Array[Double] = xs.toArray.sorted

  def median: Double = {
    val s = sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile, p in (0, 1). */
  def percentile(p: Double): Double = {
    val s = sorted
    if (s.isEmpty) Double.NaN else s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }

  /** Whether percentile p has at least ten samples beyond it. */
  def supports(p: Double): Boolean = count * (1 - p) >= 10 - 1e-9

  /** The highest of the usual percentiles with at least ten samples beyond it. */
  def tail: Option[(Double, Double)] =
    Seq(0.999, 0.99, 0.95, 0.9, 0.75, 0.5).find(supports).map(p => p -> percentile(p))
}

/** A reported metric: value, unit, and how many samples it summarises. */
final case class Metric(name: String, value: Double, unit: String, samples: Int, stat: String)

/** Minimal JSON rendering for the result lines. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else java.lang.Double.toString(x)

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
