package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.QueryVector

class QueryGenSpec extends AnyFunSuite {

  private val model = SocialStreamGen.topicModel(z = 6, vocabSize = 200, seed = 5L)

  test("sharpen keeps the dominant mass and renormalizes") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.3, 2 -> 0.1, 3 -> 0.06, 4 -> 0.04)
    val s = QueryGen.sharpen(q)
    // 0.5 + 0.3 = 0.8 < 0.85 → also takes 0.1; stops at 0.9.
    assert(s.entries.idx.toSet == Set(0, 1, 2))
    assert(math.abs(s.entries.v.sum - 1.0) < 1e-12)
    // Relative order preserved.
    assert(s.entries(0) > s.entries(1) && s.entries(1) > s.entries(2))
  }

  test("sharpen of a single-topic vector is identity") {
    val q = QueryVector(3 -> 1.0)
    assert(QueryGen.sharpen(q).entries.toSeq == q.entries.toSeq)
  }

  test("sharpen of an empty vector is empty") {
    assert(QueryGen.sharpen(QueryVector()).d == 0)
  }

  test("sharpen never increases the support size") {
    val q = QueryVector(0 -> 0.4, 1 -> 0.3, 2 -> 0.2, 3 -> 0.1)
    assert(QueryGen.sharpen(q).d <= q.d)
  }

  test("corpus-weighted draws follow corpus frequency") {
    // A corpus where word 7 dominates: most keywords must be word 7.
    val corpus = Seq.fill(50)(Array(7, 7, 7, 7, 9))
    val ws = QueryGen.workload(model, 100, 1, 10, seed = 1L, corpus = Some(corpus))
    val all = ws.flatMap(_.keywords)
    assert(all.count(_ == 7).toDouble / all.size > 0.6)
    assert(all.toSet.subsetOf(Set(7, 9)))
  }

  test("workload without corpus draws from the topic model vocabulary") {
    val ws = QueryGen.workload(model, 50, 1, 10, seed = 2L)
    ws.flatMap(_.keywords).foreach(w => assert(w >= 0 && w < 200))
  }

  test("all query vectors are sharpened (mass-dominant support)") {
    val ws = QueryGen.workload(model, 50, 1, 100, seed = 3L)
    ws.foreach { wq =>
      assert(math.abs(wq.vector.entries.v.sum - 1.0) < 1e-9)
      assert(wq.vector.d >= 1 && wq.vector.d <= 5)
    }
  }

  test("invalid arguments are rejected") {
    intercept[IllegalArgumentException](QueryGen.workload(model, 0, 1, 10))
    intercept[IllegalArgumentException](QueryGen.workload(model, 5, 10, 1))
  }
}
