package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The sparse vector behind topic distributions, query vectors and TF-IDF
  * vectors.
  */
class SparseVecSpec extends AnyFunSuite {

  /** The pair-array cosine the vector math replaced, kept as the reference. */
  private def cosinePairs(a: Array[(Int, Double)], b: Array[(Int, Double)]): Double = {
    var i = 0; var j = 0; var dot = 0.0; var na = 0.0; var nb = 0.0
    while (i < a.length) { na += a(i)._2 * a(i)._2; i += 1 }
    while (j < b.length) { nb += b(j)._2 * b(j)._2; j += 1 }
    i = 0; j = 0
    while (i < a.length && j < b.length) {
      val (ia, va) = a(i); val (ib, vb) = b(j)
      if (ia == ib) { dot += va * vb; i += 1; j += 1 }
      else if (ia < ib) i += 1
      else j += 1
    }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** The merge inner product of [[cosinePairs]]. */
  private def dotPairs(a: Array[(Int, Double)], b: Array[(Int, Double)]): Double = {
    var i = 0; var j = 0; var dot = 0.0
    while (i < a.length && j < b.length) {
      val (ia, va) = a(i); val (ib, vb) = b(j)
      if (ia == ib) { dot += va * vb; i += 1; j += 1 }
      else if (ia < ib) i += 1
      else j += 1
    }
    dot
  }

  /** Sparse-times-dense product as the k-means baseline computed it. */
  private def dotDensePairs(a: Array[(Int, Double)], c: Array[Double]): Double = {
    var s = 0.0; a.foreach { case (t, p) => s += p * c(t) }; s
  }

  /** The `LongMap` + `sortBy` word counter that [[SparseVec.counts]] replaced. */
  private def countsLongMap(words: Array[Int]): Array[(Int, Int)] = {
    val m = scala.collection.mutable.LongMap.empty[Int]
    var i = 0
    while (i < words.length) { m(words(i).toLong) = m.getOrElse(words(i).toLong, 0) + 1; i += 1 }
    m.iterator.map { case (w, c) => (w.toInt, c) }.toArray.sortBy(_._1)
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("the constructor rejects unsorted or repeated indices and unequal lengths") {
    intercept[IllegalArgumentException](new SparseVec(Array(2, 1), Array(0.5, 0.5)))
    intercept[IllegalArgumentException](new SparseVec(Array(1, 3, 3), Array(0.2, 0.3, 0.5)))
    intercept[IllegalArgumentException](new SparseVec(Array(1, 2), Array(1.0)))
    intercept[IllegalArgumentException](new SparseVec(Array(1), Array(0.5, 0.5)))
    intercept[IllegalArgumentException](SparseVec(4 -> 0.5, 0 -> 0.5))
    assert(new SparseVec(Array(0, 3, 9), Array(0.1, 0.2, 0.7)).idx.toSeq == Seq(0, 3, 9))
    assert(SparseVec.empty.idx.isEmpty && SparseVec().v.isEmpty)
  }

  test("indexOf and apply find present indices and report absent ones") {
    val v = SparseVec(1 -> 0.25, 4 -> 0.5, 7 -> 0.25)
    assert(v.indexOf(1) == 0 && v.indexOf(4) == 1 && v.indexOf(7) == 2)
    assert(Seq(-1, 0, 2, 5, 8, 100).forall(v.indexOf(_) == -1))
    assert(v(4) == 0.5 && v(7) == 0.25)
    assert(v(0) == 0.0 && v(5) == 0.0 && v(100) == 0.0)
    assert(SparseVec.empty.indexOf(0) == -1 && SparseVec.empty(0) == 0.0)
  }

  test("dense, foreach and toSeq give the entries in index order") {
    val v = SparseVec(1 -> 0.4, 3 -> 0.6)
    assert(v.dense(5).toSeq == Seq(0.0, 0.4, 0.0, 0.6, 0.0))
    val seen = Seq.newBuilder[(Int, Double)]
    v.foreach((i, x) => seen += ((i, x)))
    assert(seen.result() == Seq((1, 0.4), (3, 0.6)))
    assert(v.toSeq == Seq((1, 0.4), (3, 0.6)))
    assert(SparseVec.empty.dense(3).toSeq == Seq(0.0, 0.0, 0.0))
  }

  test("cosine and dot equal the pair-array computation bit for bit on random vectors") {
    val rnd = new scala.util.Random(11)
    val z = 12
    def draw(): Array[(Int, Double)] = {
      val n = rnd.nextInt(7)
      val idx = rnd.shuffle((0 until z).toList).take(n).sorted
      idx.map { i =>
        val u = rnd.nextDouble()
        (i, if (u < 0.1) 0.0 else if (u < 0.2) -rnd.nextDouble() else rnd.nextDouble() * math.pow(10, rnd.nextInt(7) - 3))
      }.toArray
    }
    var overlapping = 0
    (0 until 5000).foreach { trial =>
      val a = draw()
      val b = draw()
      val va = SparseVec(a.toSeq: _*)
      val vb = SparseVec(b.toSeq: _*)
      val c = Array.fill(z)(rnd.nextDouble())
      assert(bits(va.cosine(vb)) == bits(cosinePairs(a, b)), s"trial $trial cosine")
      assert(bits(va.dot(vb)) == bits(dotPairs(a, b)), s"trial $trial dot")
      assert(bits(va.dot(c)) == bits(dotDensePairs(a, c)), s"trial $trial dense dot")
      if (a.map(_._1).intersect(b.map(_._1)).length >= 2) overlapping += 1
    }
    assert(overlapping > 500, "enough pairs share several indices")
  }

  test("counts gives each distinct id in ascending order with its multiplicity") {
    assert(SparseVec.counts(Array.empty[Int]).idx.isEmpty && SparseVec.counts(Array.empty[Int]).v.isEmpty)
    assert(SparseVec.counts(Array(7)).toSeq == Seq((7, 1.0)))
    assert(SparseVec.counts(Array(4, 4, 4)).toSeq == Seq((4, 3.0)))
    assert(SparseVec.counts(Array(9, 2, 5, 2, 9, 9)).toSeq == Seq((2, 2.0), (5, 1.0), (9, 3.0)))
    assert(SparseVec.counts(Array(3, -1, 0, -7, -1)).toSeq == Seq((-7, 1.0), (-1, 2.0), (0, 1.0), (3, 1.0)))
    val words = Array(5, 1, 5)
    SparseVec.counts(words)
    assert(words.toSeq == Seq(5, 1, 5), "the input is not reordered")
  }

  test("counts equals the LongMap word counter on random bags") {
    val rnd = new scala.util.Random(17)
    var repeated = 0
    (0 until 5000).foreach { trial =>
      val range = 1 + rnd.nextInt(300)
      val bag = Array.fill(rnd.nextInt(60))(rnd.nextInt(range) - (if (rnd.nextInt(4) == 0) range / 2 else 0))
      val want = countsLongMap(bag)
      val got = SparseVec.counts(bag)
      assert(got.idx.toSeq == want.map(_._1).toSeq, s"trial $trial ids")
      assert(got.v.toSeq.map(bits) == want.map(p => bits(p._2.toDouble)).toSeq, s"trial $trial counts")
      if (want.exists(_._2 > 1)) repeated += 1
    }
    assert(repeated > 1000, "enough bags repeat an id")
  }
}
