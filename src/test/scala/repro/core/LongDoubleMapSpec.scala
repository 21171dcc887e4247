package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The open-addressing map behind CandidateState's coverage state and the engine's subset counts. */
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

  test("random updates and removals match a mutable.HashMap, down to empty") {
    // A small key universe, so probe runs are long, wrap around the table and
    // are broken by removals; 0 and the extreme Longs are keys like any other.
    val universe = (-200L to 200L).map(_ * 0x10000001L) ++ Seq(0L, Long.MinValue, Long.MaxValue)
    Seq(1L, 2L).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val m = new LongDoubleMap
      val ref = mutable.HashMap.empty[Long, Double]
      (0 until 6000).foreach { step =>
        val key = universe(rnd.nextInt(universe.length))
        // Grow for the first half, then drain, so the table resizes and empties.
        if (rnd.nextDouble() < (if (step < 3000) 0.7 else 0.3)) {
          val v = rnd.nextInt(100).toDouble
          m(key) = v; ref(key) = v
        } else { m.remove(key); ref -= key }
        assert(m.size == ref.size, s"seed $seed step $step")
        if (step % 50 == 0 || step > 5900)
          universe.foreach(k => assert(m.getOrElse(k, -1.0) == ref.getOrElse(k, -1.0), s"seed $seed step $step key $k"))
      }
      ref.keys.toSeq.foreach(m.remove)
      assert(m.size == 0 && universe.forall(!m.contains(_)))
    }
  }

  test("remove: absent keys, re-insertion and a copy taken after removals") {
    val m = new LongDoubleMap
    m.remove(5L)
    assert(m.size == 0)
    (0L until 20L).foreach(k => m(k) = k.toDouble)
    m.remove(99L)
    assert(m.size == 20)
    (0L until 20L by 2).foreach(m.remove)
    m.remove(4L)
    assert(m.size == 10 && !m.contains(4L) && m.getOrElse(5L, -1.0) == 5.0)
    m(4L) = 40.0
    assert(m.size == 11 && m.getOrElse(4L, -1.0) == 40.0)
    val c = m.copy()
    m.remove(5L)
    c.remove(7L)
    c(8L) = 80.0
    assert(!m.contains(5L) && m.getOrElse(7L, -1.0) == 7.0 && !m.contains(8L))
    assert(c.getOrElse(5L, -1.0) == 5.0 && !c.contains(7L) && c.getOrElse(8L, -1.0) == 80.0)
    assert(m.size == 10 && c.size == 11)
  }
}
