package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.TfIdfIndex
import repro.core._
import repro.data.{PaperExample, SocialStreamGen, StreamConfig}

/** The word-level (TF-IDF-similarity) coverage metric used by the Table 5/6
  * benches, checked against a naive from-scratch recomputation.
  */
class CoverageTfIdfSpec extends AnyFunSuite {

  private lazy val g = SocialStreamGen.generate(
    StreamConfig("covm", 100, 150, 5, 6, 1.0, 600, 600, seed = 61L))
  private lazy val engine: KSirEngine = {
    val e = new KSirEngine(g.model, 600, 0.5, 5.0)
    Bucket.bucketize(g.elements, 600, 600).foreach(e.advance)
    e
  }
  private val q = QueryVector(0 -> 0.5, 1 -> 0.5)

  private def naive(s: Seq[Long]): Double = {
    val idx = new TfIdfIndex(engine)
    val sAes = s.flatMap(engine.activeElement)
    if (sAes.isEmpty) return 0.0
    var num = 0.0
    var den = 0.0
    engine.activeElements.foreach { ae =>
      if (!s.contains(ae.elem.id)) {
        val rel = ae.elem.topics.cosine(q.entries)
        if (rel > 0) {
          val best = sAes.map(sae => idx.vectorOf(ae).cosine(idx.vectorOf(sae))).max
          num += rel * best
          den += rel
        }
      }
    }
    if (den == 0) 0.0 else num / den
  }

  test("matches a naive recomputation on a k-SIR result") {
    val s = MTTD.query(engine, q, 5, 0.1).elements
    val idx = new TfIdfIndex(engine)
    assert(math.abs(EvalMetrics.coverageTfIdf(engine, idx, s, q) - naive(s)) < 1e-12)
  }

  test("matches a naive recomputation on arbitrary sets") {
    val ids = engine.activeElements.map(_.elem.id).toSeq.sorted
    Seq(ids.take(1), ids.take(3), ids.takeRight(5)).foreach { s =>
      val idx = new TfIdfIndex(engine)
      assert(math.abs(EvalMetrics.coverageTfIdf(engine, idx, s, q) - naive(s)) < 1e-12)
    }
  }

  test("empty set covers nothing") {
    val idx = new TfIdfIndex(engine)
    assert(EvalMetrics.coverageTfIdf(engine, idx, Seq.empty, q) == 0.0)
  }

  test("score lies in [0, 1]") {
    val idx = new TfIdfIndex(engine)
    val ids = engine.activeElements.map(_.elem.id).toSeq
    val v = EvalMetrics.coverageTfIdf(engine, idx, ids.take(7), q)
    assert(v >= 0.0 && v <= 1.0)
  }

  test("covering with an identical-document element yields sim 1 toward it") {
    // On the paper example: e7's words ⊆ e2's words, so a set containing e2
    // gives e7 high coverage (cosine of overlapping tf-idf vectors).
    val eng8 = PaperExample.engineAt(8)
    val idx = new TfIdfIndex(eng8)
    val withE2 = EvalMetrics.coverageTfIdf(eng8, idx, Seq(2L), QueryVector(1 -> 1.0))
    val withE4 = EvalMetrics.coverageTfIdf(eng8, idx, Seq(5L), QueryVector(1 -> 1.0))
    assert(withE2 > 0.0)
    assert(withE2 != withE4)
  }

  test("a superset never reduces the numerator-side best similarity") {
    // Not monotone overall (denominator changes), but max-sim per element is.
    val ids = engine.activeElements.map(_.elem.id).toSeq.sorted
    val s1 = ids.take(2)
    val s2 = ids.take(4)
    val idx = new TfIdfIndex(engine)
    val e = engine.activeElements.find(ae => !s2.contains(ae.elem.id)).get
    val b1 = s1.flatMap(engine.activeElement).map(x => idx.vectorOf(e).cosine(idx.vectorOf(x))).max
    val b2 = s2.flatMap(engine.activeElement).map(x => idx.vectorOf(e).cosine(idx.vectorOf(x))).max
    assert(b2 >= b1)
  }
}
