package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TopicModelSpec extends AnyFunSuite {

  private val model = new TopicModel(2, 4, Array(
    Array(0.7, 0.3, 0.0, 0.0),
    Array(0.0, 0.1, 0.4, 0.5),
  ))

  test("pWord returns the topic-word probability") {
    assert(model.pWord(0, 0) == 0.7 && model.pWord(1, 3) == 0.5)
  }

  test("constructor rejects mismatched topic count") {
    intercept[IllegalArgumentException](new TopicModel(3, 4, Array(Array(1.0, 0, 0, 0))))
  }

  test("constructor rejects mismatched vocabulary width") {
    intercept[IllegalArgumentException](new TopicModel(1, 4, Array(Array(1.0, 0.0))))
  }

  test("infer puts all mass on the only matching topic") {
    val v = model.infer(Seq(0))
    assert(v.toSeq == Seq((0, 1.0)))
  }

  test("infer splits mass proportionally to word likelihood") {
    val v = model.infer(Seq(1)).toSeq.toMap
    assert(math.abs(v(0) - 0.75) < 1e-12) // 0.3 / (0.3 + 0.1)
    assert(math.abs(v(1) - 0.25) < 1e-12)
  }

  test("infer normalizes to 1") {
    val v = model.infer(Seq(0, 1, 2, 3))
    assert(math.abs(v.v.sum - 1.0) < 1e-12)
  }

  test("infer of out-of-vocabulary words is empty") {
    assert(model.infer(Seq(17)).idx.isEmpty)
  }

  test("infer truncates to maxTopics") {
    // Seven topics, word w only on topic w, and keyword w repeated w + 1
    // times: the keywords spread over all seven topics, and the five most
    // likely are topics 2..6.
    val wide = new TopicModel(7, 7, Array.tabulate(7, 7)((i, w) => if (i == w) 1.0 else 0.0))
    val v = wide.infer((0 until 7).flatMap(w => Seq.fill(w + 1)(w)))
    assert(TopicModel.MaxTopics == 5 && v.idx.toSeq == (2 until 7))
  }

  test("query vector entries must be positive") {
    intercept[IllegalArgumentException](QueryVector(SparseVec(0 -> -0.1)))
  }

  test("query vector entries must be finite") {
    intercept[IllegalArgumentException](QueryVector(0 -> Double.PositiveInfinity))
    intercept[IllegalArgumentException](QueryVector(SparseVec(0 -> 0.5, 1 -> Double.PositiveInfinity)))
    intercept[IllegalArgumentException](QueryVector(SparseVec(0 -> Double.NaN)))
  }

  test("QueryVector.apply drops zero entries and sorts") {
    val q = QueryVector(3 -> 0.5, 1 -> 0.5, 2 -> 0.0)
    assert(q.entries.idx.toSeq == Seq(1, 3))
    assert(q.d == 2)
  }

  test("QueryVector.x looks up by topic") {
    val q = QueryVector(1 -> 0.4, 5 -> 0.6)
    assert(q.entries(5) == 0.6 && q.entries(2) == 0.0)
  }

  test("dense expands the sparse vector") {
    val q = QueryVector(1 -> 0.4, 3 -> 0.6)
    assert(q.entries.dense(5).toSeq == Seq(0.0, 0.4, 0.0, 0.6, 0.0))
  }

  test("fromKeywords matches infer") {
    val q = QueryVector.fromKeywords(model, Seq(1))
    assert(q.entries.toSeq == model.infer(Seq(1)).toSeq)
  }

  test("cosineSparse of identical vectors is 1") {
    val v = SparseVec(0 -> 0.6, 2 -> 0.8)
    assert(math.abs(v.cosine(v) - 1.0) < 1e-12)
  }

  test("cosineSparse of disjoint vectors is 0") {
    assert(SparseVec(0 -> 1.0).cosine(SparseVec(1 -> 1.0)) == 0.0)
  }

  test("cosineSparse matches a dense computation") {
    val a = SparseVec(0 -> 0.2, 3 -> 0.8)
    val b = SparseVec(0 -> 0.5, 2 -> 0.1, 3 -> 0.4)
    val dot = 0.2 * 0.5 + 0.8 * 0.4
    val na = math.sqrt(0.2 * 0.2 + 0.8 * 0.8)
    val nb = math.sqrt(0.5 * 0.5 + 0.1 * 0.1 + 0.4 * 0.4)
    assert(math.abs(a.cosine(b) - dot / (na * nb)) < 1e-12)
  }

  test("cosineSparse handles empty vectors") {
    assert(SparseVec.empty.cosine(SparseVec(1 -> 1.0)) == 0.0)
  }
}
