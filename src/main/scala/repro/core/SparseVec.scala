package repro.core

/** A sparse vector: the values `v(j)` at the strictly increasing indices
  * `idx(j)`. It holds an element's topic distribution p_i(e), its word bag
  * γ(w,e), a query vector x (§3.1–3.2) and TF-IDF document vectors; hot loops
  * read `idx` and `v` directly. The arrays are shared, not copied, and must
  * not be modified.
  */
final class SparseVec(val idx: Array[Int], val v: Array[Double]) {
  require(idx.length == v.length, s"${idx.length} indices but ${v.length} values")
  locally {
    var j = 1
    while (j < idx.length && idx(j - 1) < idx(j)) j += 1
    require(j >= idx.length, "indices must be strictly increasing")
  }

  /** Position of index `i` in `idx`, or -1 when absent; a linear scan, as supports are short. */
  def indexOf(i: Int): Int = {
    var j = 0
    while (j < idx.length) { if (idx(j) == i) return j; j += 1 }
    -1
  }

  /** The value at index `i`, 0 when absent. */
  def apply(i: Int): Double = {
    val j = indexOf(i)
    if (j < 0) 0.0 else v(j)
  }

  /** Calls `f(index, value)` on each entry in index order. */
  def foreach(f: (Int, Double) => Unit): Unit = {
    var j = 0
    while (j < idx.length) { f(idx(j), v(j)); j += 1 }
  }

  /** The (index, value) pairs in index order. */
  def toSeq: Seq[(Int, Double)] = idx.indices.map(j => (idx(j), v(j)))

  /** Dense copy of length `z`. */
  def dense(z: Int): Array[Double] = {
    val a = new Array[Double](z)
    foreach((i, x) => a(i) = x)
    a
  }

  /** Inner product with another sparse vector, by a merge over both indices. */
  def dot(o: SparseVec): Double = {
    var i = 0; var j = 0; var s = 0.0
    while (i < idx.length && j < o.idx.length) {
      if (idx(i) == o.idx(j)) { s += v(i) * o.v(j); i += 1; j += 1 }
      else if (idx(i) < o.idx(j)) i += 1
      else j += 1
    }
    s
  }

  /** Inner product with a dense vector indexed like this one. */
  def dot(dense: Array[Double]): Double = {
    var s = 0.0
    foreach((i, x) => s += x * dense(i))
    s
  }

  /** Cosine similarity; 0 when either vector is all zero. */
  def cosine(o: SparseVec): Double = {
    val na = dot(this)
    val nb = o.dot(o)
    if (na == 0 || nb == 0) 0.0 else dot(o) / math.sqrt(na * nb)
  }
}

object SparseVec {
  val empty: SparseVec = new SparseVec(new Array[Int](0), new Array[Double](0))

  /** From (index, value) pairs, which must already be in increasing index order. */
  def apply(pairs: (Int, Double)*): SparseVec = new SparseVec(pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  /** The bag of `ids`: each distinct id, in ascending order, with its
    * multiplicity as value (γ(w,e) of Equation 3 for a document's words).
    */
  def counts(ids: Array[Int]): SparseVec = {
    val sorted = ids.clone
    java.util.Arrays.sort(sorted)
    var d = 0
    var i = 0
    while (i < sorted.length) { if (i == 0 || sorted(i) != sorted(i - 1)) d += 1; i += 1 }
    val idx = new Array[Int](d)
    val v = new Array[Double](d)
    var j = -1
    i = 0
    while (i < sorted.length) {
      if (i == 0 || sorted(i) != sorted(i - 1)) { j += 1; idx(j) = sorted(i) }
      v(j) += 1.0
      i += 1
    }
    new SparseVec(idx, v)
  }
}
