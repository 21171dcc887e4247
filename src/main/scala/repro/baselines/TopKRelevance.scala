package repro.baselines

import repro.core._

/** Top-k Relevance Query (REL, Zhang et al. TOIS'17): the k active elements
  * whose topic vectors have the highest cosine similarity to the query
  * vector. Topic-aware but representativeness-blind — the paper's
  * semantically-strongest non-representative baseline.
  */
object TopKRelevance {

  def query(engine: KSirEngine, q: QueryVector, k: Int): Seq[Long] = top(engine, k)(_.elem.topics.cosine(q.entries))

  /** The k active elements with the highest positive `sim`, ties by id. */
  private[baselines] def top(engine: KSirEngine, k: Int)(sim: ActiveElement => Double): Seq[Long] =
    engine.activeElements
      .map(ae => (ae.elem.id, sim(ae)))
      .filter(_._2 > 0)
      .toSeq
      .sortBy { case (id, s) => (-s, id) }
      .take(k)
      .map(_._1)
}
