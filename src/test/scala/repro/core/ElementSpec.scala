package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ElementSpec extends AnyFunSuite {

  private def el(id: Long, ts: Long, words: Seq[Int] = Seq(1), refs: Seq[Long] = Seq.empty) =
    Element(id, ts, words.toArray, refs.toArray, SparseVec(0 -> 1.0))

  test("wordFreqs counts repetitions") {
    val e = el(1, 1, Seq(3, 5, 3, 3, 5, 7))
    assert(e.wordFreqs.toSeq.toMap == Map(3 -> 3.0, 5 -> 2.0, 7 -> 1.0))
  }

  test("wordFreqs is sorted by word id") {
    val e = el(1, 1, Seq(9, 2, 5, 2))
    assert(e.wordFreqs.idx.toSeq == Seq(2, 5, 9))
  }

  test("wordFreqs of a single word") {
    assert(el(1, 1, Seq(4)).wordFreqs.toSeq == Seq((4, 1.0)))
  }

  test("pTopic returns the probability on a supported topic") {
    val e = Element(1, 1, Array(1), Array.empty, SparseVec(2 -> 0.3, 5 -> 0.7))
    assert(e.topics(2) == 0.3 && e.topics(5) == 0.7)
  }

  test("pTopic returns 0 outside the support") {
    val e = Element(1, 1, Array(1), Array.empty, SparseVec(2 -> 0.3, 5 -> 0.7))
    assert(e.topics(0) == 0.0 && e.topics(4) == 0.0 && e.topics(99) == 0.0)
  }

  test("bucketize groups elements into L-length buckets ending at multiples of L") {
    val es = (1L to 10L).map(t => el(t, t))
    val buckets = Bucket.bucketize(es, bucketLength = 3, endTs = 10)
    assert(buckets.map(_.endTs) == Seq(3L, 6L, 9L, 12L))
    assert(buckets.head.elements.map(_.ts) == Seq(1L, 2L, 3L))
    assert(buckets(1).elements.map(_.ts) == Seq(4L, 5L, 6L))
    assert(buckets.last.elements.map(_.ts) == Seq(10L))
  }

  test("bucketize with L=1 yields one bucket per timestamp") {
    val es = (1L to 5L).map(t => el(t, t))
    val buckets = Bucket.bucketize(es, 1, 5)
    assert(buckets.length == 5)
    assert(buckets.forall(b => b.elements.forall(_.ts == b.endTs)))
  }

  test("bucketize emits empty buckets for gaps in the stream") {
    val es = Seq(el(1, 1), el(2, 9))
    val buckets = Bucket.bucketize(es, 2, 9)
    assert(buckets.map(_.endTs) == Seq(2L, 4L, 6L, 8L, 10L))
    assert(buckets.count(_.elements.nonEmpty) == 2)
  }

  test("bucketize runs past endTs through the latest element's bucket") {
    val buckets = Bucket.bucketize(Seq(el(1, 1), el(2, 9)), 2, 5)
    assert(buckets.map(_.endTs) == Seq(2L, 4L, 6L, 8L, 10L))
    assert(buckets.flatMap(_.elements).map(_.id) == Seq(1L, 2L))
  }

  test("bucketize of an empty stream is empty") {
    assert(Bucket.bucketize(Seq.empty, 5, 100).isEmpty)
  }

  test("bucketize rejects non-positive bucket length") {
    intercept[IllegalArgumentException](Bucket.bucketize(Seq(el(1, 1)), 0, 5))
  }

  test("bucketize puts ts <= 0 into the L-length bucket that covers it") {
    val es = Seq(-7L, -5L, -4L, 0L, 3L).map(t => el(t + 10, t))
    val buckets = Bucket.bucketize(es, bucketLength = 5, endTs = 3)
    assert(buckets.map(_.endTs) == Seq(-5L, 0L, 5L))
    assert(buckets.map(_.elements.map(_.ts)) == Seq(Seq(-7L, -5L), Seq(-4L, 0L), Seq(3L)))
  }

  test("replayOrder sorts by ts, then id, and leaves the bucket's elements as they were") {
    val b = Bucket(5, Seq(el(4, 3), el(2, 5), el(3, 3), el(1, 5)))
    assert(b.replayOrder.map(e => (e.ts, e.id)).toSeq == Seq((3L, 3L), (3L, 4L), (5L, 1L), (5L, 2L)))
    assert(b.elements.map(_.id) == Seq(4L, 2L, 3L, 1L))
  }

  test("bucketize preserves every element exactly once") {
    val es = (1L to 100L).map(t => el(t, (t * 7) % 50 + 1))
    val buckets = Bucket.bucketize(es, 7, 55)
    assert(buckets.flatMap(_.elements).map(_.id).sorted == es.map(_.id).sorted)
  }
}
