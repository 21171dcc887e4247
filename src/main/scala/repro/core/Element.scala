package repro.core

/** A social element: the paper's triple ⟨ts, doc, ref⟩ plus a stable id and
  * its (sparse) topic distribution inferred from the topic model.
  *
  * @param id     unique element id (stream position works; must be unique)
  * @param ts     integer timestamp (seconds in the benches)
  * @param words  bag of words as vocabulary indices, repetitions allowed
  * @param refs   ids of the elements this element refers to (retweet / cite /
  *               comment targets); empty for original posts
  * @param topics sparse topic distribution `p_i(e)` over topic ids, with
  *               probabilities > 0 summing to 1
  * @param author author id — used only by the author-reputation-based
  *               baseline (Sumblr); the k-SIR model itself is author-free
  */
final case class Element(
    id: Long,
    ts: Long,
    words: Array[Int],
    refs: Array[Long],
    topics: SparseVec,
    author: Long = 0L,
) {

  /** The word bag: distinct word ids in ascending order with frequencies γ(w,e); built on every call. */
  def wordFreqs: SparseVec = SparseVec.counts(words)
}

/** A bucket B_t: the elements with `ts ∈ [t-L+1, t]`, delivered when the
  * window slides to time t (the paper processes the stream in buckets of
  * equal time length L).
  */
final case class Bucket(endTs: Long, elements: Seq[Element]) {

  /** A fresh copy of the elements in replay order, by ts and then id: the one
    * order a bucket is applied in, so a reference resolves to an earlier element.
    */
  def replayOrder: Array[Element] = {
    val order = elements.toArray
    java.util.Arrays.sort(order, Bucket.TsThenId)
    order
  }
}

object Bucket {

  private val TsThenId: java.util.Comparator[Element] = (a, b) =>
    if (a.ts != b.ts) java.lang.Long.compare(a.ts, b.ts) else java.lang.Long.compare(a.id, b.id)

  /** Partition a stream, in any order, into buckets of length L, from the
    * first bucket end that covers the earliest element through `endTs`, or
    * through the latest element's bucket if that ends later.
    */
  def bucketize(elements: Seq[Element], bucketLength: Long, endTs: Long): Seq[Bucket] = {
    require(bucketLength > 0, s"bucket length must be positive, got $bucketLength")
    if (elements.isEmpty) return Seq.empty
    // Bucket ends are multiples of L (t = L, 2L, ... per Algorithm 1), rounded up also for ts <= 0.
    def endOf(ts: Long): Long = Math.floorDiv(ts + bucketLength - 1, bucketLength) * bucketLength
    val grouped = elements.groupBy(e => endOf(e.ts))
    val firstEnd = grouped.keys.min
    firstEnd.to(math.max(grouped.keys.max, endOf(endTs)), bucketLength).map(t => Bucket(t, grouped.getOrElse(t, Seq.empty)))
  }
}
