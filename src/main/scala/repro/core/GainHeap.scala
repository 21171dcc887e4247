package repro.core

/** Max-heap of (gain, element) on two arrays, 1-based: MTTD's buffer E', CELF's
  * queue of cached gains, and Top-k Rep's buffer keyed by δ(e, x). Entries
  * are ordered by gain under `java.lang.Double.compare`, and equal gains by
  * element id, smaller id first. With distinct elements that order is total,
  * so what leaves the heap next depends only on what it holds, not on the
  * order of the calls that filled it (DESIGN §6d).
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
    while (k > 1 && before(g, ae, gains(k / 2), elems(k / 2))) {
      gains(k) = gains(k / 2); elems(k) = elems(k / 2)
      k /= 2
    }
    gains(k) = g; elems(k) = ae
  }

  /** Removes the first entry, the greatest gain, and returns its element. */
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
        if (j < n && before(gains(j + 1), elems(j + 1), gains(j), elems(j))) j += 1
        if (!before(gains(j), elems(j), g, ae)) done = true
        else {
          gains(k) = gains(j); elems(k) = elems(j)
          k = j
        }
      }
      gains(k) = g; elems(k) = ae
    }
    top
  }

  /** Whether (g1, a1) leaves before (g2, a2): a greater gain, or an equal one
    * and a smaller id.
    */
  private def before(g1: Double, a1: ActiveElement, g2: Double, a2: ActiveElement): Boolean = {
    val c = java.lang.Double.compare(g1, g2)
    c > 0 || (c == 0 && a1.elem.id < a2.elem.id)
  }
}
