package repro.data

import repro.core.{QueryVector, TopicModel}
import scala.util.Random

/** A generated k-SIR workload query: the raw keywords (for the keyword-based
  * baselines), the inferred query vector (for REL / k-SIR), and the query
  * timestamp at which the result is retrieved (§5.1 "Query and Workload
  * Generation").
  */
final case class WorkloadQuery(keywords: Seq[Int], vector: QueryVector, ts: Long)

object QueryGen {

  /** Generate a workload: per query, draw 1–5 keywords, infer the query
    * vector by treating the keywords as a pseudo-document (§3.2), sharpen it
    * to its dominant topics, and assign a timestamp uniform in
    * [minTs, maxTs].
    *
    * Keyword draws: with a `corpus`, words are drawn by corpus frequency —
    * real keyword queries follow the corpus language distribution, so
    * trending topics are queried more (the paper's user study explicitly
    * queries "trending topics"). Without a corpus, words are drawn from a
    * uniformly random topic's word distribution.
    */
  def workload(
      model: TopicModel,
      n: Int,
      minTs: Long,
      maxTs: Long,
      seed: Long = 97L,
      corpus: Option[Seq[Array[Int]]] = None,
  ): IndexedSeq[WorkloadQuery] = {
    require(n > 0 && maxTs >= minTs, "need a positive count and a valid time range")
    val rnd = new Random(seed)
    // Cumulative distributions for per-topic word draws (no-corpus mode).
    val cdfs = model.topicWord.map(SocialStreamGen.cumulative)
    val corpusWords: Array[Int] = corpus.map(_.flatten.toArray).getOrElse(Array.empty)
    def drawWord(): Int =
      if (corpusWords.nonEmpty) corpusWords(rnd.nextInt(corpusWords.length))
      else {
        val t = rnd.nextInt(model.z)
        SocialStreamGen.search(cdfs(t), rnd.nextDouble())
      }
    (0 until n).map { _ =>
      val nWords = 1 + rnd.nextInt(5)
      val words = Seq.fill(nWords)(drawWord())
      val vec = sharpen(QueryVector.fromKeywords(model, words))
      val ts = minTs + (if (maxTs > minTs) rnd.nextLong(maxTs - minTs + 1) else 0L)
      WorkloadQuery(words, vec, ts)
    }.filter(_.vector.d > 0)
  }

  /** Keep the dominant topics carrying 85% of the inferred mass (Gibbs-style
    * inference concentrates similarly; the flat one-step posterior does not),
    * then renormalize.
    */
  def sharpen(q: QueryVector): QueryVector = {
    if (q.d == 0) return q
    val desc = q.entries.toSeq.sortBy(-_._2)
    val kept = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
    var acc = 0.0
    desc.foreach { e =>
      if (acc < 0.85) { kept += e; acc += e._2 }
    }
    val norm = kept.map(_._2).sum
    QueryVector(kept.map { case (t, p) => (t, p / norm) }.sortBy(_._1).toSeq: _*)
  }
}
