package repro.lda

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The LDA training substrate: distributions must be valid and the sampler
  * must recover clearly separated planted topics.
  */
class GibbsLdaSpec extends AnyFunSuite {

  /** Corpus with two disjoint planted topics: words 0–9 vs words 10–19. */
  private def plantedCorpus(nDocs: Int, seed: Long): IndexedSeq[Array[Int]] = {
    val rnd = new Random(seed)
    (0 until nDocs).map { d =>
      val base = if (d % 2 == 0) 0 else 10
      Array.fill(20)(base + rnd.nextInt(10))
    }
  }

  test("trained topic-word rows are valid distributions") {
    val (model, _) = GibbsLda.paperPriors(z = 2, vocabSize = 20).train(plantedCorpus(40, 1), iterations = 30)
    (0 until 2).foreach { i =>
      val s = (0 until 20).map(model.pWord(i, _)).sum
      assert(math.abs(s - 1.0) < 1e-9)
      (0 until 20).foreach(w => assert(model.pWord(i, w) > 0))
    }
  }

  test("trained document-topic rows are valid distributions") {
    val (_, theta) = GibbsLda.paperPriors(2, 20).train(plantedCorpus(40, 2), iterations = 30)
    theta.foreach { row =>
      assert(math.abs(row.sum - 1.0) < 1e-6)
      row.foreach(p => assert(p > 0))
    }
  }

  test("sampler separates two disjoint planted topics") {
    val (model, _) = GibbsLda.paperPriors(2, 20).train(plantedCorpus(80, 3), iterations = 60)
    // Each trained topic should concentrate on one half of the vocabulary.
    val mass0 = (0 until 10).map(model.pWord(0, _)).sum
    val mass1 = (0 until 10).map(model.pWord(1, _)).sum
    val spread = math.abs(mass0 - mass1)
    assert(spread > 0.6, s"topic separation only $spread (mass0=$mass0, mass1=$mass1)")
  }

  test("documents land on their planted topic") {
    val corpus = plantedCorpus(80, 4)
    val (model, theta) = GibbsLda.paperPriors(2, 20).train(corpus, iterations = 60)
    // Identify which trained topic maps to planted topic 0.
    val t0 = if ((0 until 10).map(model.pWord(0, _)).sum > 0.5) 0 else 1
    val correct = corpus.indices.count { d =>
      val dominant = if (theta(d)(t0) > theta(d)(1 - t0)) 0 else 1
      dominant == (d % 2)
    }
    assert(correct >= corpus.size * 8 / 10, s"only $correct/${corpus.size} docs recovered")
  }

  test("training is deterministic in the seed") {
    val c = plantedCorpus(30, 5)
    val (m1, _) = new GibbsLda(2, 20, 1.0, 0.01, seed = 9L).train(c, 20)
    val (m2, _) = new GibbsLda(2, 20, 1.0, 0.01, seed = 9L).train(c, 20)
    (0 until 2).foreach(i => (0 until 20).foreach(w => assert(m1.pWord(i, w) == m2.pWord(i, w))))
  }

  test("paperPriors uses α = 50/z, β = 0.01") {
    val lda = GibbsLda.paperPriors(z = 25, vocabSize = 10)
    assert(lda.alpha == 2.0 && lda.beta == 0.01)
  }

  test("invalid dimensions are rejected") {
    intercept[IllegalArgumentException](new GibbsLda(0, 10, 1.0, 0.01))
  }

  test("end-to-end: a trained model drives the k-SIR engine") {
    val corpus = plantedCorpus(60, 6)
    val (model, theta) = GibbsLda.paperPriors(2, 20).train(corpus, iterations = 40)
    val elements = corpus.indices.map { d =>
      val topics = theta(d).zipWithIndex.filter(_._1 > 0.1).map { case (p, t) => (t, p) }
      val norm = topics.map(_._2).sum
      repro.core.Element(d.toLong, d.toLong + 1, corpus(d),
        if (d > 0 && d % 7 == 0) Array((d - 1).toLong) else Array.empty[Long],
        repro.core.SparseVec(topics.map { case (t, p) => (t, p / norm) }.sortBy(_._1): _*))
    }
    val eng = new repro.core.KSirEngine(model, 100, 0.5, 5.0)
    repro.core.Bucket.bucketize(elements, 10, 61).foreach(eng.advance)
    val q = repro.core.QueryVector(0 -> 0.5, 1 -> 0.5)
    val res = repro.core.MTTD.query(eng, q, 5, 0.1)
    assert(res.elements.nonEmpty && res.score > 0)
  }
}
