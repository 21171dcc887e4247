package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The open-addressing map behind CandidateState's coverage state. */
class LongDoubleMapSpec extends AnyFunSuite {

  test("a missing key returns the default, in an empty and in a filled map") {
    val m = new LongDoubleMap
    assert(m.getOrElse(7L, 1.5) == 1.5)
    assert(m.size == 0)
    m(3L) = 2.0
    assert(m.getOrElse(7L, -4.0) == -4.0)
    assert(m.getOrElse(3L, -4.0) == 2.0)
  }

  test("overwriting a key keeps one entry with the last value") {
    val m = new LongDoubleMap
    m(42L) = 1.0
    m(42L) = 0.25
    assert(m.size == 1)
    assert(m.getOrElse(42L, 0.0) == 0.25)
  }

  test("10^4 keys survive growth past the load factor") {
    val m = new LongDoubleMap
    val rnd = new scala.util.Random(5)
    val keys = Array.fill(10000)(rnd.nextLong()).distinct
    keys.zipWithIndex.foreach { case (k, i) => m(k) = i.toDouble }
    assert(m.size == keys.length)
    keys.zipWithIndex.foreach { case (k, i) => assert(m.getOrElse(k, -1.0) == i.toDouble, s"key $k") }
    keys.foreach(k => m(k) = m.getOrElse(k, 0.0) + 0.5)
    assert(m.size == keys.length)
    keys.zipWithIndex.foreach { case (k, i) => assert(m.getOrElse(k, -1.0) == i + 0.5) }
  }

  test("0, negative keys, Long.MinValue and Long.MaxValue are ordinary keys") {
    val m = new LongDoubleMap
    val keys = Seq(0L, -1L, -123456789L, Long.MinValue, Long.MaxValue)
    assert(keys.forall(k => m.getOrElse(k, 9.0) == 9.0), "nothing is present before insertion")
    keys.zipWithIndex.foreach { case (k, i) => m(k) = i + 0.5 }
    assert(m.size == keys.length)
    keys.zipWithIndex.foreach { case (k, i) => assert(m.getOrElse(k, -1.0) == i + 0.5, s"key $k") }
    assert(m.getOrElse(1L, -1.0) == -1.0)
  }

  test("keys equal in their low 32 bits are told apart") {
    val m = new LongDoubleMap
    val keys = (0 until 2000).map(i => (i.toLong << 32) | 0x5L)
    keys.zipWithIndex.foreach { case (k, i) => m(k) = i.toDouble }
    assert(m.size == keys.length)
    keys.zipWithIndex.foreach { case (k, i) => assert(m.getOrElse(k, -1.0) == i.toDouble) }
    assert(m.getOrElse((3000L << 32) | 0x5L, -1.0) == -1.0)
  }

  test("a copy and its original diverge independently, through growth, keeping all keys") {
    assert(new LongDoubleMap().copy().size == 0)
    val m = new LongDoubleMap
    (0L until 5L).foreach(k => m(k) = k.toDouble)
    val c = m.copy()
    (5L until 1000L).foreach(k => m(k) = k.toDouble)
    (0L until 5L).foreach(k => c(k) = -1.0 - k)
    (-500L until 0L).foreach(k => c(k) = 2.0 * k)
    assert(m.size == 1000 && c.size == 505)
    (0L until 1000L).foreach(k => assert(m.getOrElse(k, Double.NaN) == k.toDouble, s"original key $k"))
    (-500L until 0L).foreach(k => assert(!m.contains(k), s"original key $k"))
    (0L until 5L).foreach(k => assert(c.getOrElse(k, Double.NaN) == -1.0 - k, s"copy key $k"))
    (-500L until 0L).foreach(k => assert(c.getOrElse(k, Double.NaN) == 2.0 * k, s"copy key $k"))
    (5L until 1000L).foreach(k => assert(!c.contains(k), s"copy key $k"))
  }
}
