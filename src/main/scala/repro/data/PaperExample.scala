package repro.data

import repro.core._

/** The paper's running example: the 8-tweet stream and 2-topic model of
  * Table 1, used by the golden tests for Examples 1–5.
  *
  * Word ids are 1-based (w1..w16, vocabulary size 17 with slot 0 unused).
  * The θ1 probability of w15 is blank in the paper's Table 1(c); it must be
  * 0.13 — the θ1 column sums to 0.87 without it while the θ2 column sums to
  * exactly 1.00.
  */
object PaperExample {

  val VocabSize = 17

  /** Table 1(b,c): p_i(w), rows over the 17-slot vocabulary. */
  val model: TopicModel = {
    //                 w:  0    1     2     3     4    5     6     7     8    9     10    11   12    13    14    15    16
    val theta1 = Array(0.0, 0.0, 0.06, 0.09, 0.1, 0.05, 0.11, 0.12, 0.0, 0.0, 0.11, 0.0, 0.15, 0.08, 0.0, 0.13, 0.0)
    val theta2 = Array(0.0, 0.03, 0.04, 0.0, 0.09, 0.04, 0.12, 0.0, 0.06, 0.07, 0.0, 0.11, 0.14, 0.0, 0.07, 0.12, 0.11)
    new TopicModel(2, VocabSize, Array(theta1, theta2))
  }

  private def el(id: Long, ts: Long, words: Seq[Int], t1: Double, t2: Double, refs: Seq[Long]): Element = {
    val topics = SparseVec(Seq((0, t1), (1, t2)).filter(_._2 > 0): _*)
    Element(id, ts, words.toArray.map(identity), refs.toArray, topics)
  }

  /** Table 1(a). Element ids equal their index (e1 = 1, ...). */
  val elements: IndexedSeq[Element] = IndexedSeq(
    el(1, 1, Seq(1, 6, 8, 14, 16), 0.2, 0.8, Seq.empty),
    el(2, 2, Seq(4, 9, 11), 0.26, 0.74, Seq.empty),
    el(3, 3, Seq(3, 5, 10, 13), 0.89, 0.11, Seq.empty),
    el(4, 4, Seq(7, 10), 1.0, 0.0, Seq(3)),
    el(5, 5, Seq(6, 8, 16), 0.29, 0.71, Seq(1)),
    el(6, 6, Seq(2, 7, 10, 12), 0.7, 0.3, Seq(3)),
    el(7, 7, Seq(4, 11), 0.33, 0.67, Seq(2)),
    el(8, 8, Seq(10, 11, 15), 0.51, 0.49, Seq(2, 3, 6)),
  )

  /** Example 3 settings: λ = 0.5, η = 2, T = 4. */
  def engineAt(t: Long): KSirEngine = {
    val engine = new KSirEngine(model, window = 4, lambda = 0.5, eta = 2.0)
    Bucket.bucketize(elements.filter(_.ts <= t), bucketLength = 1, endTs = t).foreach(engine.advance)
    engine
  }
}
