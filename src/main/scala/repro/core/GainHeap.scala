package repro.core

/** Max-heap of (gain, element) on two arrays, 1-based: the lazy-greedy queue
  * of cached marginal gains that MTTD's buffer E' and CELF both use. Its sift
  * rules are those of `mutable.PriorityQueue` ordered by gain under
  * `java.lang.Double.compare` (`fixUp`: move up while the parent is less;
  * `fixDown`: take the greater child, the right one only if the left is
  * less, and stop once not less than it), so equal gains dequeue in the
  * same order as they would from that queue.
  */
final class GainHeap {
  private var gains = new Array[Double](16)
  private var elems = new Array[ActiveElement](16)
  private var n = 0

  def nonEmpty: Boolean = n > 0

  def isEmpty: Boolean = n == 0

  def headGain: Double = gains(1)

  def enqueue(g: Double, ae: ActiveElement): Unit = {
    n += 1
    if (n == gains.length) {
      gains = java.util.Arrays.copyOf(gains, 2 * n)
      elems = java.util.Arrays.copyOf(elems, 2 * n)
    }
    var k = n
    while (k > 1 && java.lang.Double.compare(gains(k / 2), g) < 0) {
      gains(k) = gains(k / 2); elems(k) = elems(k / 2)
      k /= 2
    }
    gains(k) = g; elems(k) = ae
  }

  /** Removes the entry with the greatest gain and returns its element. */
  def dequeue(): ActiveElement = {
    val top = elems(1)
    val g = gains(n)
    val ae = elems(n)
    elems(n) = null
    n -= 1
    if (n > 0) {
      var k = 1
      var done = false
      while (!done && 2 * k <= n) {
        var j = 2 * k
        if (j < n && java.lang.Double.compare(gains(j), gains(j + 1)) < 0) j += 1
        if (java.lang.Double.compare(g, gains(j)) >= 0) done = true
        else {
          gains(k) = gains(j); elems(k) = elems(j)
          k = j
        }
      }
      gains(k) = g; elems(k) = ae
    }
    top
  }
}
