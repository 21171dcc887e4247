package repro.baselines

import repro.core._
import scala.collection.mutable

/** Top-k Representative: the k elements with the highest singleton scores
  * δ(e, x), retrieved from the ranked lists with a threshold-algorithm-style
  * early stop (traverse in decreasing x-weighted order; stop when the upper
  * bound falls below the k-th best exact score). Only 1/k-approximate for
  * k-SIR because word/influence overlaps are ignored — the paper compares
  * against it to show plain top-k is not enough.
  */
object TopKRepresentative {

  def query(engine: KSirEngine, q: QueryVector, k: Int): KSirResult = {
    require(k >= 1, "k must be at least 1")
    val cursor = new RankedListCursor(engine, q)
    // Min-heap of the current best k: (δ(e,x), id).
    val top = mutable.PriorityQueue.empty[(Double, Long)](Ordering.by[(Double, Long), Double](_._1).reverse)

    while (!cursor.exhausted && (top.size < k || cursor.upperBound >= top.head._1)) {
      val ae = cursor.popMax()
      val d = engine.deltaScore(ae, q)
      if (d > 0.0) {
        top.enqueue((d, ae.elem.id))
        if (top.size > k) top.dequeue()
      }
    }

    val ids = top.toSeq.sortBy(-_._1).map(_._2)
    KSirResult(ids, engine.evaluate(ids, q), cursor.retrievedCount, cursor.retrievedCount)
  }
}
