package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Celf, TopKRepresentative}
import repro.data.{SocialStreamGen, StreamConfig}
import repro.spark.StreamingRankedLists
import scala.collection.mutable

/** A bucket is applied in its one replay order, whatever order its elements
  * come in; and a stream cut into buckets of different lengths reaches the
  * same state and answers at a common bucket end.
  */
class ReplayOrderSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Every ranked list, as (δ bits, id) in rank order. */
  private def lists(e: KSirEngine): Seq[Seq[(Long, Long)]] =
    (0 until e.model.z).map(t => e.rankedList(t).map { case (s, id) => (bits(s), id) }.toSeq)

  private def ids(e: KSirEngine): Seq[Long] = e.activeElements.map(_.elem.id).toSeq

  private def answer(r: KSirResult): (Seq[Long], Long) = (r.elements, bits(r.score))

  private def queries(z: Int, n: Int, seed: Int): Seq[QueryVector] = {
    val rnd = new scala.util.Random(seed)
    (0 until n).map { _ =>
      val topics = rnd.shuffle((0 until z).toList).take(1 + rnd.nextInt(4))
      QueryVector(topics.map(t => t -> (0.1 + rnd.nextDouble())): _*)
    }
  }

  /** Counts elements that re-enter A_t after having left it. */
  private final class Resurrections {
    private var active = Set.empty[Long]
    private val left = mutable.Set.empty[Long]
    var count = 0
    def observe(e: KSirEngine): Unit = {
      val now = ids(e).toSet
      left ++= active -- now
      count += now.count(left.contains)
      left --= now
      active = now
    }
  }

  test("the order of a bucket's elements changes no state, answer or streaming event") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(700, 3600, 83L))
    // Dropping every seventh element leaves references to ids never ingested.
    val buckets = Bucket.bucketize(g.elements.filter(_.id % 7 != 3), 300, 3600)
    val rnd = new scala.util.Random(89)
    val shuffled = buckets.map(b => b.copy(elements = rnd.shuffle(b.elements)))
    assert(buckets.zip(shuffled).count { case (a, b) => a.elements != b.elements } > buckets.length / 2)
    val asGiven = new KSirEngine(g.model, 1200, 0.5, 5.0)
    val reordered = new KSirEngine(g.model, 1200, 0.5, 5.0)
    val qs = queries(g.model.z, 6, 97)
    val resurrections = new Resurrections
    buckets.zip(shuffled).foreach { case (b, s) =>
      asGiven.advance(b)
      reordered.advance(s)
      val at = s"bucket ${b.endTs}"
      assert(ids(reordered) == ids(asGiven), at)
      assert(lists(reordered) == lists(asGiven), at)
      assert(reordered.unknownRefs == asGiven.unknownRefs, at)
      qs.foreach { q =>
        assert(answer(MTTD.query(reordered, q, 5, 0.1)) == answer(MTTD.query(asGiven, q, 5, 0.1)), s"$at MTTD $q")
        assert(answer(MTTS.query(reordered, q, 5, 0.1)) == answer(MTTS.query(asGiven, q, 5, 0.1)), s"$at MTTS $q")
        assert(answer(TopKRepresentative.query(reordered, q, 5)) == answer(TopKRepresentative.query(asGiven, q, 5)),
          s"$at Top-k Rep $q")
      }
      resurrections.observe(asGiven)
    }
    assert(resurrections.count > 0 && asGiven.unknownRefs > 0, (resurrections.count, asGiven.unknownRefs))
    assert(StreamingRankedLists.events(g.model, shuffled) == StreamingRankedLists.events(g.model, buckets))
  }

  test("buckets of 60, 900 and 3600 s reach the same A_t, lists and answers at every hour") {
    val hours = 12
    val g = SocialStreamGen.generate(StreamConfig.aminer(3000, hours * 3600L, 101L))
    val cuts = Seq(60L, 900L, 3600L).map { l =>
      (new KSirEngine(g.model, 1800, 0.5, 5.0), Bucket.bucketize(g.elements, l, hours * 3600L).iterator.buffered)
    }
    val (fine, _) = cuts.head
    val qs = queries(g.model.z, 12, 103)
    val resurrections = new Resurrections
    (1 to hours).foreach { h =>
      val t = h * 3600L
      cuts.foreach { case (e, bs) =>
        while (bs.hasNext && bs.head.endTs <= t) {
          e.advance(bs.next())
          if (e eq fine) resurrections.observe(e)
        }
        assert(e.now == t)
      }
      cuts.tail.foreach { case (e, _) =>
        // A_t as a set: a resurrected element re-enters the admission order
        // when it is referred again after leaving, and whether it left first
        // depends on where the buckets are cut.
        assert(ids(e).sorted == ids(fine).sorted, s"hour $h")
        assert(lists(e) == lists(fine), s"hour $h")
        // SieveStreaming is left out: its answer follows the admission
        // order, which the resurrections make depend on the cut.
        qs.foreach { q =>
          assert(answer(MTTD.query(e, q, 5, 0.1)) == answer(MTTD.query(fine, q, 5, 0.1)), s"hour $h MTTD $q")
          assert(answer(MTTS.query(e, q, 5, 0.1)) == answer(MTTS.query(fine, q, 5, 0.1)), s"hour $h MTTS $q")
          assert(answer(Celf.query(e, q, 5)) == answer(Celf.query(fine, q, 5)), s"hour $h CELF $q")
        }
      }
    }
    assert(resurrections.count > 0)
  }
}
