package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The engine's subset-count map against a `mutable.HashMap`. */
class LongCountMapSpec extends AnyFunSuite {

  test("random adds and deletions keep every count, and a count at 0 leaves the map") {
    // A small key universe, so probe runs are long, wrap around the table and
    // are broken by deletions; 0 and the extreme Longs are keys like any other.
    val universe = (-200L to 200L).map(_ * 0x10000001L) ++ Seq(0L, Long.MinValue, Long.MaxValue)
    Seq(1L, 2L).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val m = new KSirEngine.LongCountMap
      val ref = mutable.HashMap.empty[Long, Int]
      (0 until 6000).foreach { step =>
        val key = universe(rnd.nextInt(universe.length))
        // Grow for the first half, then drain, so the table resizes and empties.
        val up = rnd.nextDouble() < (if (step < 3000) 0.7 else 0.3)
        val c = ref.getOrElse(key, 0)
        if (up || c == 0) { m.add(key, 1); ref(key) = c + 1 }
        else {
          val by = 1 + rnd.nextInt(c)
          m.add(key, -by)
          if (c == by) ref -= key else ref(key) = c - by
        }
        assert(m.size == ref.size, s"seed $seed step $step")
        if (step % 50 == 0 || step > 5900) universe.foreach(k => assert(m.count(k) == ref.getOrElse(k, 0), s"seed $seed step $step key $k"))
      }
      ref.toSeq.foreach { case (k, c) => m.add(k, -c) }
      assert(m.size == 0 && universe.forall(m.count(_) == 0))
    }
  }

  test("a count may not fall below 0") {
    val m = new KSirEngine.LongCountMap
    m.add(5L, 2)
    intercept[IllegalArgumentException](m.add(5L, -3))
    intercept[IllegalArgumentException](m.add(6L, -1))
    assert(m.count(5L) == 2 && m.size == 1)
  }
}
