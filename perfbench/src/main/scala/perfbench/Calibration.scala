package perfbench

import scala.collection.mutable

/** A fixed task of the same kind as the engine's hot paths — hash-map probes
  * into boxed records, sorted-set iteration over boxed tuples, short
  * floating-point loops — that uses no code of the program under test. Timed
  * between the benchmark's items, it measures how fast the machine currently
  * runs such code.
  */
final class Calibration {
  private val n = 1 << 16
  private val rnd = new java.util.SplittableRandom(20190326L)
  private val keys: Array[Long] = Array.fill(n)(rnd.nextLong())
  private val map = mutable.LongMap.empty[Array[Double]]
  keys.foreach(k => map(k) = Array.fill(6)(rnd.nextDouble()))
  private val set = mutable.TreeSet.empty[(Double, Long)](Ordering.Tuple2(Ordering[Double].reverse, Ordering[Long]))
  keys.foreach(k => set += ((rnd.nextDouble(), k)))
  private val probes: Array[Long] = Array.tabulate(24000)(i => keys((i.toLong * 40503L % n).toInt))
  private var sink = 0.0

  private def once(): Long = {
    val t0 = System.nanoTime()
    var s = 0.0
    var i = 0
    while (i < probes.length) {
      val a = map(probes(i))
      var j = 0
      while (j < a.length) { s += a(j) * a(j); j += 1 }
      i += 1
    }
    val it = set.iterator
    i = 0
    while (i < 24000 && it.hasNext) { val (d, k) = it.next(); s += d + (k & 1); i += 1 }
    map.valuesIterator.foreach(a => s += a(0))
    sink += s
    System.nanoTime() - t0
  }

  /** Median of three runs of the task after one that refills the caches, in ms. */
  def measure(): Double = {
    once()
    val t = Array.fill(3)(once())
    java.util.Arrays.sort(t)
    t(1) / 1e6
  }
}

object Calibration {
  /** The task's duration on the machine the baseline was recorded on when it
    * was idle (a 4-vCPU Xeon VM): calibrated times are raw times scaled by
    * this over the task's duration measured next to them.
    */
  val ReferenceMs = 2.6
}
