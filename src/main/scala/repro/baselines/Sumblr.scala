package repro.baselines

import repro.core._
import scala.collection.mutable
import scala.util.Random

/** Sumblr-lite (Shou et al., SIGIR'13, as used for querying in the paper's
  * §5.1): keyword-filter the active elements, cluster the candidates with
  * k-means over their topic vectors, then pick one element per cluster by a
  * LexRank-style centrality (similarity to the cluster centroid) weighted by
  * an author/PageRank-style influence proxy.
  *
  * Substitution note (see DESIGN.md): the original weights elements by the
  * PageRank of their authors. The synthetic streams carry a Zipfian author
  * assignment, so the proxy here is the author's prominence in the active
  * window (log of their post count) — influence-aware through author
  * reputation, but *not* the direct per-element reference count k-SIR
  * optimizes. The paper attributes k-SIR's influence-metric win over Sumblr
  * to exactly this difference (§5.2), so the substitution preserves it.
  */
object Sumblr {

  def query(engine: KSirEngine, keywords: Seq[Int], k: Int): Seq[Long] = {
    val kwSet = keywords.toSet
    val cands = engine.activeElements
      .filter(ae => ae.elem.words.exists(kwSet.contains))
      .toArray
      .sortBy(_.elem.id)
    if (cands.isEmpty) return Seq.empty
    if (cands.length <= k) return cands.map(_.elem.id).toSeq

    val z = engine.model.z
    val vecs = cands.map(_.elem.topics)
    val rnd = new Random(42L)

    // k-means over sparse topic vectors (dense centroids, few iterations).
    var centroids: Array[Array[Double]] =
      rnd.shuffle(vecs.indices.toList).take(k).map(i => vecs(i).dense(z)).toArray
    var assign = new Array[Int](vecs.length)
    (0 until 10).foreach { _ =>
      assign = vecs.map(v => centroids.indices.maxBy(c => v.dot(centroids(c))))
      val sums = Array.fill(k)(new Array[Double](z))
      val counts = new Array[Int](k)
      vecs.indices.foreach { i =>
        val c = assign(i); counts(c) += 1
        vecs(i).foreach((t, p) => sums(c)(t) += p)
      }
      centroids = sums.zip(counts).map { case (s, n) => if (n == 0) s else s.map(_ / n) }
    }

    // Author prominence over the active window: the PageRank-style author
    // reputation signal of the original Sumblr.
    val authorPosts = mutable.LongMap.empty[Int]
    engine.activeElements.foreach { ae =>
      authorPosts(ae.elem.author) = authorPosts.getOrElse(ae.elem.author, 0) + 1
    }

    val picked = mutable.ArrayBuffer.empty[Long]
    (0 until k).foreach { c =>
      val members = cands.indices.filter(assign(_) == c)
      if (members.nonEmpty) {
        val best = members.maxBy { i =>
          val centrality = vecs(i).dot(centroids(c))
          val reputation = math.log1p(authorPosts.getOrElse(cands(i).elem.author, 0).toDouble)
          centrality * (1.0 + reputation)
        }
        picked += cands(best).elem.id
      }
    }
    // Backfill empty clusters with the most reputable unpicked candidates.
    if (picked.length < k) {
      cands.sortBy(ae => -authorPosts.getOrElse(ae.elem.author, 0).toDouble)
        .iterator.map(_.elem.id).filterNot(picked.contains)
        .take(k - picked.length).foreach(picked += _)
    }
    picked.toSeq
  }
}
