package perfbench

import java.security.MessageDigest
import repro.core._
import scala.collection.mutable

/** Checks every answer the benchmark receives. An answer fails when
  *  - it holds more than k elements, repeats an id, or names an inactive one;
  *  - its reported score differs from `engine.evaluate(S, x)` by more than
  *    1e-9 relative;
  *  - on the CELF subsample, MTTD scores below (1 − 1/e − ε)·CELF or MTTS
  *    below (1/2 − ε)·CELF. CELF ≤ OPT, so both bounds are necessary
  *    conditions of Theorems 2–3.
  */
final class AnswerChecker(k: Int, epsilon: Double) {
  var attempted = 0L
  var failed = 0L
  val messages = mutable.ArrayBuffer.empty[String]

  private def fail(msg: String): Unit = if (messages.length < 20) messages += msg

  /** Checks one answer; `celf` is CELF's score on the same query, if run. */
  def check(engine: KSirEngine, q: QueryVector, m: Method, r: KSirResult, celf: Option[Double], what: String): Boolean = {
    attempted += 1
    val problems = mutable.ArrayBuffer.empty[String]
    if (r.elements.length > k) problems += s"|S| = ${r.elements.length} > k"
    if (r.elements.distinct.length != r.elements.length) problems += "repeated id"
    r.elements.find(id => engine.activeElement(id).isEmpty).foreach(id => problems += s"inactive id $id")
    val exact = engine.evaluate(r.elements, q)
    if (math.abs(exact - r.score) > 1e-9 * math.max(math.abs(exact), math.abs(r.score)))
      problems += s"score ${r.score} != evaluate ${exact}"
    val ratio = m match {
      case Method.Mttd => Some(1 - 1 / math.E - epsilon)
      case Method.Mtts => Some(0.5 - epsilon)
      case _           => None
    }
    for (c <- celf; b <- ratio if r.score < b * c * (1 - 1e-9)) problems += f"score ${r.score} < $b%.4f·CELF $c"
    if (problems.nonEmpty) { failed += 1; fail(s"$what ${m.name}: ${problems.mkString("; ")}") }
    problems.isEmpty
  }

  /** Counts one digest comparison; a mismatch or a missing record is a failure. */
  def compareDigest(what: String, expected: Option[String], actual: String): Unit = {
    attempted += 1
    expected match {
      case Some(e) if e == actual =>
      case Some(e) => failed += 1; fail(s"$what digest $actual != recorded $e")
      case None    => failed += 1; fail(s"$what digest $actual has no recorded value")
    }
  }
}

object AnswerChecker {

  /** Feeds tampered answers to a fresh checker and returns the ones it failed
    * to reject (empty when the checker works). Needs an engine with at least
    * k + 1 active elements and a query with a non-empty MTTD answer.
    */
  def selfTest(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): Seq[String] = {
    val good = MTTD.query(engine, q, k, epsilon)
    val celf = repro.baselines.Celf.query(engine, q, k).score
    val outsider = engine.activeElements.map(_.elem.id).max + 1
    val tooMany = good.elements ++ engine.activeElements.map(_.elem.id).filterNot(good.elements.contains)
      .take(k + 1 - good.elements.length)
    val tampered = Seq(
      ("too many elements", good.copy(elements = tooMany, score = engine.evaluate(tooMany, q)), None),
      ("repeated id", good.copy(elements = good.elements :+ good.elements.head), None),
      ("inactive id", good.copy(elements = good.elements.init :+ outsider), None),
      ("wrong score", good.copy(score = good.score * (1 + 1e-6)), None),
      ("below the CELF bound", good, Some(good.score / (1 - 1 / math.E - epsilon) * 1.01)),
    )
    val checker = new AnswerChecker(k, epsilon)
    val missed = tampered.collect {
      case (label, r, c) if checker.check(engine, q, Method.Mttd, r, c, "self-test") => label
    }
    val rejectsGood = !checker.check(engine, q, Method.Mttd, good, Some(celf), "self-test")
    missed ++ (if (rejectsGood) Seq("a valid answer was rejected") else Nil) ++
      (if (checker.failed != tampered.length - missed.length) Seq("failure count mismatch") else Nil)
  }
}

/** Running SHA-256 over answers: ordered ids and scores to nine significant
  * digits, so it survives reordered floating-point sums but not a changed
  * answer.
  */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  def add(r: KSirResult): Unit =
    md.update((r.elements.mkString(",") + "|" + String.format(java.util.Locale.ROOT, "%.8e", Double.box(r.score)) + ";").getBytes("UTF-8"))
  def hex: String = md.digest().map("%02x".format(_)).mkString.take(16)
}
