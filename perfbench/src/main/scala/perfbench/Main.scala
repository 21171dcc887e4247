package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core.KSirEngine
import scala.jdk.CollectionConverters._

/** Stream-replay benchmark of the k-SIR engine. Usage:
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                [--out <dir>] [--digests <file>]
  * }}}
  *
  * Prints a metric table, a provenance line and, last, one JSON result line.
  * Exits with 2 on bad arguments and 3 when the answer checker fails its
  * self-test.
  */
object Main {
  import Workloads._

  val SetupReps = 3
  /** Wall time of the replay after which no pass beyond the minimum starts. */
  val WallCapSeconds = 90L

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = byName(need("workload")).getOrElse(usage(s"unknown workload; one of ${all.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = need("seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be positive"))
    val traced = need("trace") match { case "0" => false; case "1" => true; case _ => usage("--trace is 0 or 1") }
    val out = Paths.get(opts.getOrElse("out", ".bench_build/perfbench"))
    val digestFile = Paths.get(opts.getOrElse("digests", "perfbench/digests.json"))
    run(workload, seed, seconds, traced, out, digestFile)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  private def run(w: Workload, seed: Long, seconds: Double, traced: Boolean,
      out: java.nio.file.Path, digestFile: java.nio.file.Path): Unit = {
    val checker = new AnswerChecker(K, Epsilon)
    // The calibration task, built before the heap baseline of `state_mb` and
    // run until the JIT has compiled it.
    val cal = new Calibration
    (1 to 40).foreach(_ => cal.measure())

    // Set-up, repeated: generation, η derivation, query generation, ingest of
    // the first window and a block of warm-up queries. The median is
    // reported; the last repetition is kept.
    val setup = new Samples
    var inputs: Inputs = null
    var engine: KSirEngine = null
    var heapBefore = 0L
    (1 to SetupReps).foreach { rep =>
      inputs = null; engine = null
      val t0 = System.nanoTime()
      inputs = Inputs.forSeed(w, seed)
      val p0 = System.nanoTime()
      if (rep == SetupReps) heapBefore = Jvm.liveHeap
      val paused = System.nanoTime() - p0
      engine = inputs.loadedEngine()
      warmUp(engine, inputs)
      setup.add((System.nanoTime() - t0 - paused) / 1e9)
    }

    // The reference stream: answers checked and digested against the record.
    val refDigests = referenceCheck(w, checker)
    val recorded = readDigests(digestFile)
    Method.indexed.foreach(m => checker.compareDigest(s"reference ${w.name} ${m.name}", recorded.get(s"${w.name}.${m.name}"), refDigests(m)))

    val runId = f"${w.name}-s$seed-${if (traced) "traced" else "untraced"}-${System.currentTimeMillis()}%d"
    val traceFile = out.resolve("traces").resolve(s"${w.name}-s$seed.jsonl")
    val tracer = if (traced) Some(new Tracer(runId)) else None
    Jvm.liveHeap // a full GC before timing starts
    val replay = new Replay(inputs, seconds, checker, tracer, cal)
    engine = replay.run(engine, WallCapSeconds * 1000000000L)
    val stateMb = (Jvm.liveHeap - heapBefore) / (1024.0 * 1024.0)
    // At the recorded seed, the timed stream's first pass is checked too.
    if (seed == DigestSeed) Method.indexed.foreach { m =>
      val key = s"${w.name}.seed$seed.${m.name}"
      checker.compareDigest(s"timed $key", recorded.get(key), replay.digests(m))
    }

    def e2e(raw: Boolean) = Seq(
      Metric("setup_s", setup.median, "s", setup.count, "median (uncalibrated)"),
      Metric("ingest_us_per_elem", replay.usPerElem(raw).median, "us", replay.usPerElem(raw).count, "median"),
      Metric("ingest_bucket_p95_ms", replay.advanceMs(raw).pooled.percentile(0.95), "ms", replay.advanceMs(raw).pooled.count,
        "p95 of all passes"),
      lat(replay, Method.Mttd, 0.5, raw), lat(replay, Method.Mttd, 0.99, raw),
      lat(replay, Method.Mtts, 0.5, raw), lat(replay, Method.Mtts, 0.99, raw),
      lat(replay, Method.TopK, 0.5, raw), lat(replay, Method.Celf, 0.5, raw), lat(replay, Method.Sieve, 0.5, raw),
      Metric("mttd_quality", replay.quality(Method.Mttd), "ratio", replay.latencyMs(Method.Celf).best.count, "sum/sum"),
      Metric("mtts_quality", replay.quality(Method.Mtts), "ratio", replay.latencyMs(Method.Celf).best.count, "sum/sum"),
      Metric("state_mb", stateMb, "MB", 1, "value"),
    )
    val failedFrac = Metric("failed_frac", checker.failed.toDouble / math.max(1L, checker.attempted), "ratio",
      checker.attempted.toInt, "failed/attempted")
    val perLayer = if (traced) layerMetrics(replay) else Nil

    println(s"workload ${w.name}: seed $seed, stream seed ${inputs.streamSeed}, query seed ${inputs.querySeed}, " +
      s"${inputs.gen.elements.length} elements, L = ${w.bucketL} s, eta = ${inputs.eta}")
    println(f"calibration task: median ${replay.calibrations.median}%.4f ms, range ${replay.calibrations.percentile(0.01)}%.4f-" +
      f"${replay.calibrations.percentile(1)}%.4f ms over ${replay.calibrations.count} runs; reference ${Calibration.ReferenceMs} ms")
    println(s"replay: ${replay.passes} passes over ${inputs.timedBuckets.length} buckets and ${inputs.queries.length} queries, " +
      f"${replay.busyNs / 1e9}%.2f s in timed calls, n_t at end ${engine.activeCount}")
    println("tail percentiles (all passes): " + Method.all.flatMap(m => replay.latencyMs(m).pooled.tail.map { case (p, v) =>
      f"${m.name} p${p * 100}%.1f = $v%.4f ms" }).mkString(", "))
    println(s"answer digests: " + replay.digests.toSeq.sortBy(_._1.name).map { case (m, d) => s"${m.name} $d" }.mkString(", ") +
      " (celf, sieve informational)")
    println(s"reference digests: " + refDigests.toSeq.sortBy(_._1.name).map { case (m, d) => s"${m.name} $d" }.mkString(", "))
    println(f"${"metric"}%-28s ${"calibrated"}%14s ${"raw"}%14s ${"unit"}%-6s ${"samples"}%8s  stat")
    e2e(raw = false).zip(e2e(raw = true)).foreach { case (m, r) =>
      println(f"${m.name}%-28s ${m.value}%14.6f ${r.value}%14.6f ${m.unit}%-6s ${m.samples}%8d  ${m.stat}")
    }
    printMetric(failedFrac)
    if (traced) {
      println("-- traced run: per-layer metrics (end-to-end figures above include tracing) --")
      perLayer.foreach(printMetric)
      tracer.get.write(traceFile)
      println(s"spans: ${tracer.get.size} of run $runId written to $traceFile")
    }
    checker.messages.foreach(m => println(s"FAILED $m"))

    val rt = ManagementFactory.getRuntimeMXBean
    println("provenance: " + Json.obj(Seq(
      "workload" -> Json.str(w.name), "seed" -> seed.toString,
      "stream_seed" -> inputs.streamSeed.toString, "query_seed" -> inputs.querySeed.toString,
      "reference_seed" -> ReferenceSeed.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> Json.str(s"${rt.getVmName} ${System.getProperty("java.runtime.version")}"),
      "jvm_flags" -> Json.arr(rt.getInputArguments.asScala.toSeq.map(Json.str)),
      "commit" -> Json.str(System.getProperty("perfbench.commit", "unknown")),
      "seconds" -> Json.num(seconds), "trace" -> (if (traced) "1" else "0"),
    )))

    val reported = if (traced) perLayer else e2e(raw = false)
    println(Json.obj(Seq(
      "correct" -> (checker.failed == 0).toString,
      "attempted" -> checker.attempted.toString,
      "failed" -> checker.failed.toString,
      "metrics" -> Json.obj(reported.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    )))
  }

  /** A median over items at their best pass, or a tail over all passes. */
  private def lat(r: Replay, m: Method, p: Double, raw: Boolean): Metric = {
    val t = r.latencyMs(m, raw)
    val name = f"${m.name}_p${(p * 100).round}%d_ms"
    if (p == 0.5) Metric(name, t.best.median, "ms", t.best.count, "median")
    else Metric(name, t.pooled.percentile(p), "ms", t.pooled.count,
      f"p${p * 100}%.0f of all passes" + (if (t.pooled.supports(p)) "" else " (too few samples)"))
  }

  private def printMetric(m: Metric): Unit =
    println(f"${m.name}%-28s ${m.value}%14.6f ${""}%14s ${m.unit}%-6s ${m.samples}%8d  ${m.stat}")

  /** Untimed warm-up: the ranked-list methods on every warm-up query and the
    * index-free baselines on a few, so the JIT has compiled every query path.
    */
  private def warmUp(engine: KSirEngine, inputs: Inputs): Unit =
    inputs.warmQueries.zipWithIndex.foreach { case (q, i) =>
      (if (i % 8 == 0) Method.all else Method.indexed).foreach(m => Calls.query(engine, m, q))
    }

  /** Replays the reference stream, checks every answer, runs the checker's
    * self-test, and returns the result digest per method.
    */
  private def referenceCheck(w: Workload, checker: AnswerChecker): Map[Method, String] = {
    val ref = Inputs.reference(w)
    val engine = ref.loadedEngine()
    val digests = Method.all.map(_ -> new Digest).toMap
    var bi = 0
    val buckets = ref.timedBuckets
    ref.queries.foreach { pq =>
      while (bi < buckets.length && buckets(bi).endTs <= pq.ts) { engine.advance(buckets(bi)); bi += 1 }
      val results = Method.all.map(m => m -> Calls.query(engine, m, pq.vector)).toMap
      val celf = results(Method.Celf).score
      results.foreach { case (m, r) =>
        checker.check(engine, pq.vector, m, r, Some(celf), s"reference query ${pq.index}")
        digests(m).add(r)
      }
    }
    val q = ref.queries.map(_.vector).find(v => repro.core.MTTD.query(engine, v, K, Epsilon).elements.length >= 2)
    val missed = q.map(AnswerChecker.selfTest(engine, _, K, Epsilon)).getOrElse(Seq("no query with an answer"))
    if (missed.nonEmpty) {
      System.err.println(s"perfbench: answer-checker self-test failed: ${missed.mkString(", ")}")
      sys.exit(3)
    }
    println(s"checker self-test: all tampered answers rejected")
    digests.map { case (m, d) => m -> d.hex }
  }

  private val DigestLine = """\s*"([^"]+)"\s*:\s*"([0-9a-f]+)"\s*,?\s*""".r

  private def readDigests(file: java.nio.file.Path): Map[String, String] =
    if (!Files.exists(file)) Map.empty
    else Files.readAllLines(file, StandardCharsets.UTF_8).asScala.collect { case DigestLine(k, v) => k -> v }.toMap

  private def layerMetrics(r: Replay): Seq[Metric] = {
    val l = r.layers
    def med(name: String, s: Samples, unit: String): Metric = Metric(name, s.median, unit, s.count, "median")
    Seq(
      med("engine.advance_ms_p50", l.advanceMs, "ms"),
      Metric("engine.advance_ms_p95", l.advanceMs.percentile(0.95), "ms", l.advanceMs.count, "p95"),
      med("engine.n_t", l.nT, "count"),
      med("engine.list_entries", l.listEntries, "count"),
      Metric("engine.alloc_kb_per_elem", l.advanceAlloc / 1024.0 / math.max(1L, l.advanceElems), "KiB", l.advanceMs.count, "sum/sum"),
      med("active_element.new_us", l.aeNewUs, "us"),
      Metric("active_element.sigma_entries", l.sigmaEntries.toDouble / math.max(1L, l.aeBuilt), "count", l.aeBuilt.toInt, "mean"),
      Metric("jvm.gc_ms", r.gcMs.toDouble, "ms", 1, "total"),
      Metric("jvm.gc_count", r.gcCount.toDouble, "count", 1, "total"),
      med("cursor.pop_ns", l.popNs, "ns"),
      med("scoring.delta_ns", l.deltaNs, "ns"),
      med("scoring.gain_ns", l.gainNs, "ns"),
      med("scoring.add_ns", l.addNs, "ns"),
    ) ++ Method.indexed.flatMap { m =>
      Seq(
        med(s"${m.name}.retrieved", l.of(l.retrieved, m), "count"),
        med(s"${m.name}.evaluated_frac", l.of(l.evaluatedFrac, m), "ratio"),
        med(s"${m.name}.self_ms", l.of(l.selfMs, m), "ms"),
      )
    } ++ Seq(Method.Mtts, Method.Mttd).map { m =>
      Metric(s"${m.name}.useful_ratio", l.answerSize(m).toDouble / math.max(1L, l.evaluated(m)), "ratio",
        l.of(l.retrieved, m).count, "sum/sum")
    } ++ Seq(Method.Mtts, Method.Mttd, Method.Celf).map(m => med(s"${m.name}.alloc_kb_per_query", l.of(l.allocKb, m), "KiB")) ++ Seq(
      med("trace.overhead_us", l.queryOverheadUs, "us"),
      Metric("trace.overhead_pct", 100.0 * (l.tracedNs - l.untracedNs) / math.max(1L, l.untracedNs), "%",
        l.queryOverheadUs.count + l.advanceMs.count, "sum/sum"),
    )
  }
}
