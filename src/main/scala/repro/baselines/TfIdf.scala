package repro.baselines

import repro.core._
import scala.collection.mutable

/** Log-normalized TF-IDF vectorization over the current active window, plus
  * the Top-k Keyword Query baseline (TF-IDF): the k active elements whose
  * TF-IDF vectors have the highest cosine similarity to the keyword query.
  */
final class TfIdfIndex(engine: KSirEngine) {

  /** Document frequency per word over A_t. */
  val docFreq: mutable.LongMap[Int] = {
    val m = mutable.LongMap.empty[Int]
    engine.activeElements.foreach { ae =>
      ae.wordIds.foreach(w => m(w.toLong) = m.getOrElse(w.toLong, 0) + 1)
    }
    m
  }

  val nDocs: Int = engine.activeCount

  /** idf(w) = log(N / df(w)); 0 for unseen words. */
  def idf(w: Int): Double = {
    val df = docFreq.getOrElse(w.toLong, 0)
    if (df == 0 || nDocs == 0) 0.0 else math.log(nDocs.toDouble / df)
  }

  /** Log-normalized TF-IDF vector of a word bag (see [[SparseVec.counts]]). */
  def vectorize(bag: SparseVec): SparseVec =
    SparseVec(bag.toSeq.map { case (w, f) => (w, (1.0 + math.log(f)) * idf(w)) }.filter(_._2 > 0): _*)

  private val vecCache = mutable.LongMap.empty[SparseVec]

  def vectorOf(ae: ActiveElement): SparseVec =
    vecCache.getOrElseUpdate(ae.elem.id, vectorize(ae.elem.wordFreqs))

  def queryVector(keywords: Seq[Int]): SparseVec =
    vectorize(SparseVec.counts(keywords.toArray))
}

object TfIdf {

  /** Top-k elements by cosine(TF-IDF(e), TF-IDF(keywords)). */
  def query(engine: KSirEngine, keywords: Seq[Int], k: Int): Seq[Long] = {
    val idx = new TfIdfIndex(engine)
    val qv = idx.queryVector(keywords)
    TopKRelevance.top(engine, k)(idx.vectorOf(_).cosine(qv))
  }
}
