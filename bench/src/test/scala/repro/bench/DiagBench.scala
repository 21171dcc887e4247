package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core._
import repro.metrics.EvalMetrics

/** Diagnostic (not part of the reproduction tables): score-scale statistics
  * and metric ceilings, used to calibrate η (see EXPERIMENTS.md).
  */
class DiagBench extends AnyFunSuite {

  test("score scales and metric ceilings per dataset") {
    BenchData.all.foreach { ds =>
      val eng = ds.engineAt(BenchData.WindowT)
      val rs = eng.activeElements.flatMap(ae => ae.elem.topics.idx.map(ae.semantic)).toSeq
      val is = eng.activeElements.flatMap(ae => ae.elem.topics.idx.map(ae.influence)).toSeq
      println(f"${ds.name}: eta=${ds.eta}%.3f meanR=${rs.sum / rs.size}%.3f maxR=${rs.max}%.3f " +
        f"meanI=${is.sum / is.size}%.3f maxI=${is.max}%.3f " +
        f"p99I=${is.sorted.apply((is.size * 0.99).toInt)}%.3f")

      val queries = BenchData.workload(ds, 10, seed = 888L)
      val semEng = new KSirEngine(ds.gen.model, BenchData.WindowT, 1.0, ds.eta)
      val infEng = new KSirEngine(ds.gen.model, BenchData.WindowT, 0.0, ds.eta)
      ds.buckets.takeWhile(_.endTs <= BenchData.WindowT).foreach { b => semEng.advance(b); infEng.advance(b) }

      val idx = new TfIdfIndex(eng)
      queries.take(5).foreach { wq =>
        val mixed = MTTD.query(eng, wq.vector, 10, 0.1).elements
        val sem = MTTD.query(semEng, wq.vector, 10, 0.1).elements
        val inf = MTTD.query(infEng, wq.vector, 10, 0.1).elements
        val sumblr = Sumblr.query(eng, wq.keywords, 10)
        println(f"  q(d=${wq.vector.d}): cov mixed=${EvalMetrics.coverageTfIdf(eng, idx, mixed, wq.vector)}%.3f " +
          f"sem=${EvalMetrics.coverageTfIdf(eng, idx, sem, wq.vector)}%.3f " +
          f"sumblr=${EvalMetrics.coverageTfIdf(eng, idx, sumblr, wq.vector)}%.3f | " +
          f"inf mixed=${EvalMetrics.influence(eng, mixed, 10)}%.3f " +
          f"pureInf=${EvalMetrics.influence(infEng, inf, 10)}%.3f " +
          f"sumblr=${EvalMetrics.influence(eng, sumblr, 10)}%.3f")
      }
    }
  }
}
