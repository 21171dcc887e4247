package repro.core

/** A probabilistic topic model used as a black-box oracle, exactly as the
  * paper treats it: it provides the topic-word probabilities `p_i(w)` and is
  * used to infer topic distributions of documents and keyword queries.
  *
  * @param z         number of topics
  * @param vocabSize vocabulary size m
  * @param topicWord `topicWord(i)(w) = p_i(w)`; each row sums to 1
  */
final class TopicModel(
    val z: Int,
    val vocabSize: Int,
    val topicWord: Array[Array[Double]],
) {
  require(topicWord.length == z, s"expected $z topic rows, got ${topicWord.length}")
  require(topicWord.forall(_.length == vocabSize), "topic-word rows must span the vocabulary")

  /** p_i(w): probability of word w on topic i. */
  def pWord(i: Int, w: Int): Double = topicWord(i)(w)

  /** Infer a sparse topic distribution for a bag of words, used both for the
    * query-by-keyword paradigm (keywords as a pseudo-document, §3.2) and for
    * elements when a pre-assigned distribution is not available. A simple
    * one-step posterior with a uniform topic prior:
    * `p(θ_i | doc) ∝ Σ_w γ(w) · p_i(w)`, truncated to the
    * [[TopicModel.MaxTopics]] most likely topics and renormalized — matching
    * the paper's observation that elements sit on very few topics (<2 on
    * average).
    */
  def infer(words: Seq[Int]): SparseVec = {
    val scores = new Array[Double](z)
    var i = 0
    while (i < z) {
      var s = 0.0
      words.foreach { w => if (w >= 0 && w < vocabSize) s += topicWord(i)(w) }
      scores(i) = s
      i += 1
    }
    val top = scores.zipWithIndex.filter(_._1 > 0).sortBy(-_._1).take(TopicModel.MaxTopics)
    val norm = top.map(_._1).sum
    if (norm <= 0) SparseVec.empty
    else SparseVec(top.map { case (s, t) => (t, s / norm) }.sortBy(_._1): _*)
  }
}

object TopicModel {

  /** Most topics [[TopicModel.infer]] keeps. */
  val MaxTopics = 5
}

/** A z-dimensional query vector x (sparse): the user's degree of interest on
  * each topic (§3.2). Any finite positive entries are accepted, summing to 1 or not:
  * f(S, x) stays a non-negative combination of monotone submodular f_i, so
  * Theorems 2–3 and both cursor bounds hold (DESIGN §1). `QueryGen` and
  * [[TopicModel.infer]] build vectors that sum to 1.
  */
final case class QueryVector(entries: SparseVec) {
  require(entries.v.forall(x => x > 0 && x < Double.PositiveInfinity), "query vector entries must be finite and positive")

  /** d: the number of non-zero entries (used in the complexity analyses). */
  def d: Int = entries.idx.length
}

object QueryVector {
  def apply(pairs: (Int, Double)*): QueryVector = QueryVector(SparseVec(pairs.filter(_._2 > 0).sortBy(_._1): _*))

  /** Build a query vector from keywords via the topic model (§3.2). */
  def fromKeywords(model: TopicModel, keywords: Seq[Int]): QueryVector = QueryVector(model.infer(keywords))
}
