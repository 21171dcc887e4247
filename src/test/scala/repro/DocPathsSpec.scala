package repro

import java.nio.file.{Files, Path, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The documents name only Scala files that exist. A path such as
  * `repro/core/KSirEngine.scala`, `core/KSirEngine.scala` or
  * `repro/bench/{BenchData,Tables}.scala` counts as found when a file under
  * one of the source roots has that path as its tail. CHANGES.md and
  * ROADMAP.md are left out: they name past files on purpose.
  */
class DocPathsSpec extends AnyFunSuite {

  private val Docs = Seq("README.md", "DESIGN.md", "EXPERIMENTS.md")
  private val Roots = Seq("src/main/scala", "src/test/scala", "bench/src/test/scala", "perfbench/src/main/scala", "jobs")

  /** The repository root: the nearest directory at or above the working
    * directory that holds both build.sbt and DESIGN.md.
    */
  private lazy val root: Path =
    Iterator.iterate(Paths.get(sys.props("user.dir")).toAbsolutePath)(_.getParent)
      .takeWhile(_ != null)
      .find(d => Files.exists(d.resolve("build.sbt")) && Files.exists(d.resolve("DESIGN.md")))
      .getOrElse(fail("repository root not found above " + sys.props("user.dir")))

  /** Repository-relative paths of every .scala file under the source roots. */
  private lazy val sources: Seq[String] = Roots.map(root.resolve).filter(Files.isDirectory(_)).flatMap { r =>
    val walk = Files.walk(r)
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).map(root.relativize(_).toString.replace('\\', '/')).toList
    finally walk.close()
  }

  /** A path of directory segments ending in a .scala file name; any segment
    * may be a brace list such as `{A,B}`.
    */
  private val Named = """(?:(?:[\w.-]+|\{[\w.,-]+\})/)*(?:[\w-]+|\{[\w,-]+\})\.scala""".r

  private val Brace = """\{([^{}]*)\}""".r

  /** Every .scala path named in `text`, brace lists expanded, in order. */
  private def named(text: String): Seq[String] = Named.findAllIn(text).toSeq.flatMap(expand)

  private def expand(p: String): Seq[String] = Brace.findFirstMatchIn(p) match {
    case None => Seq(p)
    case Some(m) => m.group(1).split(',').toSeq.flatMap(alt => expand(p.substring(0, m.start) + alt + p.substring(m.end)))
  }

  private def missing(text: String): Seq[String] =
    named(text).filterNot(p => sources.exists(s => s == p || s.endsWith("/" + p)))

  test("every .scala path named in README.md, DESIGN.md and EXPERIMENTS.md exists under a source root") {
    val gone = Docs.flatMap(d => missing(Files.readString(root.resolve(d))).map(p => s"$d: $p"))
    assert(gone.isEmpty, gone.mkString("named but not found: ", ", ", ""))
  }

  test("brace lists expand, and a path that no source root holds is reported") {
    assert(named("see `repro/bench/{BenchData,Tables}.scala` and `find -name '*.scala'`") ==
      Seq("repro/bench/BenchData.scala", "repro/bench/Tables.scala"))
    assert(missing("`core/KSirEngine.scala`, `jobs/StreamingJob.scala`").isEmpty)
    assert(missing("`repro/gone/Missing.scala` and `repro/core/Element.scala`") == Seq("repro/gone/Missing.scala"))
  }
}
