//! Renders `results/*.json` into one self-contained HTML dashboard.
//!
//! ```text
//! report [--out PATH] [FILE...]
//! ```
//!
//! With no files, every `results/*.json` is read; documents that are
//! neither figure documents (no `table` section) nor served results are
//! skipped with a note. The output is a single hand-rolled HTML file —
//! inline CSS and inline SVG charts, no external assets, scripts or
//! network fetches — so it can be attached to a CI run or opened from a
//! checkout as-is.
//!
//! Per figure document: the summary values, the paper-style table, one
//! SVG line chart per epoch time series (issue-slot throughput per
//! epoch), and, for forensic documents, the per-injection causal records
//! with their flight-recorder event chains. `rmt-serve` payloads render
//! too: a bare run/sweep result fetched with `rmtc` (or a cache-hit
//! envelope embedding one) becomes a section with its per-thread or
//! per-axis table, so served results drop straight into the dashboard.
//! An `rmt-cluster/v1` envelope gets a dispatch-provenance section — a
//! per-worker table (cells won, cache hits, retries, steals, evictions)
//! plus duplicate/peak-inflight totals — followed by its merged result.

use rmt_stats::cli::{self, Args};
use rmt_stats::json::parse;
use rmt_stats::Json;

/// Chart geometry: one fixed frame for every time-series plot.
const CHART_W: f64 = 640.0;
const CHART_H: f64 = 170.0;
const MARGIN_L: f64 = 56.0;
const MARGIN_B: f64 = 24.0;
const PAD_T: f64 = 10.0;

/// Line palette (colorblind-safe Okabe–Ito subset).
const PALETTE: [&str; 6] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9",
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Compact numeric label: integers render bare, fractions to 3 places.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.3}")
    }
}

/// One polyline per series over a shared 0-based y axis.
fn svg_chart(title: &str, x_label: &str, lines: &[(String, Vec<f64>)]) -> String {
    let n = lines.iter().map(|(_, ys)| ys.len()).max().unwrap_or(0);
    if n == 0 {
        return String::new();
    }
    let y_max = lines
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .fold(1e-9f64, f64::max);
    let plot_w = CHART_W - MARGIN_L - 8.0;
    let plot_h = CHART_H - MARGIN_B - PAD_T;
    let x_of = |i: usize| MARGIN_L + plot_w * i as f64 / (n.max(2) - 1) as f64;
    let y_of = |v: f64| PAD_T + plot_h * (1.0 - v / y_max);
    let legend_h = 16.0 * lines.len() as f64;
    let mut s = format!(
        "<figure><figcaption>{}</figcaption>\
         <svg viewBox=\"0 0 {CHART_W} {h}\" width=\"{CHART_W}\" \
         role=\"img\" aria-label=\"{}\">\n",
        esc(title),
        esc(title),
        h = CHART_H + legend_h,
    );
    // Frame, y-max gridline and axis labels.
    s += &format!(
        "<rect x=\"{MARGIN_L}\" y=\"{PAD_T}\" width=\"{plot_w}\" height=\"{plot_h}\" \
         class=\"frame\"/>\n\
         <text x=\"{lx}\" y=\"{ty}\" class=\"lbl\" text-anchor=\"end\">{ymax}</text>\n\
         <text x=\"{lx}\" y=\"{by}\" class=\"lbl\" text-anchor=\"end\">0</text>\n\
         <text x=\"{cx}\" y=\"{xy}\" class=\"lbl\" text-anchor=\"middle\">{xl}</text>\n",
        lx = MARGIN_L - 6.0,
        ty = PAD_T + 10.0,
        ymax = esc(&fmt_num(y_max)),
        by = PAD_T + plot_h,
        cx = MARGIN_L + plot_w / 2.0,
        xy = CHART_H - 6.0,
        xl = esc(x_label),
    );
    for (li, (label, ys)) in lines.iter().enumerate() {
        let color = PALETTE[li % PALETTE.len()];
        if ys.len() == 1 {
            s += &format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>\n",
                x_of(0),
                y_of(ys[0])
            );
        } else {
            let pts: Vec<String> = ys
                .iter()
                .enumerate()
                .map(|(i, &v)| format!("{:.1},{:.1}", x_of(i), y_of(v)))
                .collect();
            s += &format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                 stroke-width=\"1.5\"/>\n",
                pts.join(" ")
            );
        }
        let ly = CHART_H + 12.0 + 16.0 * li as f64;
        s += &format!(
            "<rect x=\"{MARGIN_L}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"{}\" y=\"{}\" class=\"lbl\">{}</text>\n",
            ly - 9.0,
            MARGIN_L + 16.0,
            ly,
            esc(label)
        );
    }
    s += "</svg></figure>\n";
    s
}

/// The per-epoch lines to chart for one cell: every `…/slots/issued`
/// counter (per-core issue throughput), falling back to the four
/// largest-total counters when a document has no slot accounting.
fn series_lines(series: &Json) -> Vec<(String, Vec<f64>)> {
    let epochs = series.get("epochs").and_then(Json::as_array).unwrap_or(&[]);
    let mut names: Vec<String> = epochs
        .first()
        .and_then(Json::members)
        .map(|m| {
            m.iter()
                .filter(|(k, _)| k.ends_with("/slots/issued"))
                .map(|(k, _)| k.clone())
                .collect()
        })
        .unwrap_or_default();
    if names.is_empty() {
        let mut totals: Vec<(String, f64)> = Vec::new();
        if let Some(members) = epochs.first().and_then(Json::members) {
            for (k, _) in members {
                let total: f64 = epochs
                    .iter()
                    .filter_map(|e| e.get(k).and_then(Json::as_f64))
                    .sum();
                totals.push((k.clone(), total));
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        names = totals.into_iter().take(4).map(|(k, _)| k).collect();
    }
    names
        .into_iter()
        .map(|name| {
            let ys = epochs
                .iter()
                .map(|e| e.get(&name).and_then(Json::as_f64).unwrap_or(0.0))
                .collect();
            (name, ys)
        })
        .collect()
}

fn render_table(table: &Json) -> String {
    let cols = table.get("columns").and_then(Json::as_array).unwrap_or(&[]);
    let rows = table.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    let mut s = String::from("<table><thead><tr>");
    for c in cols {
        s += &format!("<th>{}</th>", esc(c.as_str().unwrap_or("")));
    }
    s += "</tr></thead><tbody>\n";
    for row in rows {
        s += "<tr>";
        for cell in row.as_array().unwrap_or(&[]) {
            s += &format!("<td>{}</td>", esc(cell.as_str().unwrap_or("")));
        }
        s += "</tr>\n";
    }
    s += "</tbody></table>\n";
    s
}

/// The forensic records as a table, each with its flight-recorder chain
/// rendered `kind@cycle → …`.
fn render_forensics(records: &[Json]) -> String {
    let mut s = String::from(
        "<h3>Per-injection causal records</h3>\
         <table><thead><tr><th>arrangement</th><th>fault</th><th>#</th>\
         <th>outcome</th><th>mechanism</th><th>latency</th><th>hops</th>\
         <th>flight-recorder chain</th></tr></thead><tbody>\n",
    );
    for r in records {
        let get_str = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
        let get_u64 = |k: &str| {
            r.get(k)
                .and_then(Json::as_u64)
                .map_or_else(|| "-".to_string(), |v| v.to_string())
        };
        let chain: Vec<String> = r
            .get("events")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                format!(
                    "{}@{}",
                    e.get("kind").and_then(Json::as_str).unwrap_or("?"),
                    e.get("cycle").and_then(Json::as_u64).unwrap_or(0)
                )
            })
            .collect();
        s += &format!(
            "<tr class=\"{}\"><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td class=\"chain\">{}</td></tr>\n",
            esc(&get_str("outcome")),
            esc(&get_str("arrangement")),
            esc(&get_str("fault")),
            get_u64("index"),
            esc(&get_str("outcome")),
            esc(&get_str("mechanism")),
            get_u64("latency"),
            get_u64("hops"),
            esc(&chain.join(" → "))
        );
    }
    s += "</tbody></table>\n";
    s
}

/// One dashboard section per figure document.
fn render_doc(anchor: &str, file: &str, doc: &Json) -> String {
    let title = doc.get("title").and_then(Json::as_str).unwrap_or(file);
    let paper = doc.get("paper").and_then(Json::as_str).unwrap_or("");
    let mut s = format!(
        "<section id=\"{anchor}\"><h2>{}</h2>\n<p class=\"meta\">{} \
         <span class=\"file\">({})</span></p>\n",
        esc(title),
        esc(paper),
        esc(file)
    );
    if let Some(scale) = doc.get("scale") {
        let field = |k: &str| scale.get(k).and_then(Json::as_u64).unwrap_or(0);
        s += &format!(
            "<p class=\"meta\">scale: warmup {} / measure {} / seed {}</p>\n",
            field("warmup"),
            field("measure"),
            field("seed")
        );
    }
    if let Some(summary) = doc.get("summary").and_then(Json::members) {
        if !summary.is_empty() {
            s += "<table class=\"kv\"><tbody>\n";
            for (k, v) in summary {
                s += &format!(
                    "<tr><td>{}</td><td>{}</td></tr>\n",
                    esc(k),
                    esc(&v.as_f64().map_or_else(String::new, |f| format!("{f:.4}")))
                );
            }
            s += "</tbody></table>\n";
        }
    }
    if let Some(table) = doc.get("table") {
        s += &render_table(table);
    }
    if let Some(series) = doc.get("timeseries").and_then(Json::members) {
        if !series.is_empty() {
            s += "<h3>Epoch time series</h3>\n";
        }
        for (key, ts) in series {
            let every = ts.get("every").and_then(Json::as_u64).unwrap_or(0);
            let lines = series_lines(ts);
            if !lines.is_empty() {
                s += &svg_chart(
                    &format!("{key} — issue slots per epoch"),
                    &format!("epoch ({every} cycles each)"),
                    &lines,
                );
            }
        }
    }
    if let Some(records) = doc.get("forensics").and_then(Json::as_array) {
        s += &render_forensics(records);
    }
    s += "</section>\n";
    s
}

/// The run/sweep result inside a served payload: a bare result document
/// (what `/v1/results/<digest>` returns) is itself the result; a
/// `rmt-serve/v1` envelope embeds one only on a cache hit.
fn service_result(doc: &Json) -> Option<&Json> {
    let result = match doc.get("schema").and_then(Json::as_str) {
        Some("rmt-serve/v1") => doc.get("result")?,
        Some(_) => return None,
        None => doc,
    };
    matches!(
        result.get("type").and_then(Json::as_str),
        Some("run" | "sweep")
    )
    .then_some(result)
}

/// One dashboard section per served result document.
fn render_service(anchor: &str, file: &str, result: &Json) -> (String, String) {
    let is_run = result.get("type").and_then(Json::as_str) == Some("run");
    let title = if is_run {
        format!(
            "served run: {}",
            result.get("kind").and_then(Json::as_str).unwrap_or("?")
        )
    } else {
        format!(
            "served sweep: {}",
            result.get("name").and_then(Json::as_str).unwrap_or("?")
        )
    };
    let mut s = format!(
        "<section id=\"{anchor}\"><h2>{}</h2>\n\
         <p class=\"meta\">rmt-serve result document \
         <span class=\"file\">({})</span></p>\n",
        esc(&title),
        esc(file)
    );
    if is_run {
        s += &format!(
            "<table class=\"kv\"><tbody>\n\
             <tr><td>cycles</td><td>{}</td></tr>\n\
             <tr><td>faults_detected</td><td>{}</td></tr>\n\
             </tbody></table>\n",
            result.get("cycles").and_then(Json::as_u64).unwrap_or(0),
            result
                .get("faults_detected")
                .and_then(Json::as_u64)
                .unwrap_or(0)
        );
        s += "<table><thead><tr><th>thread</th><th>benchmark</th>\
              <th>committed</th><th>cycles</th><th>ipc</th></tr></thead><tbody>\n";
        for (i, t) in result
            .get("per_thread")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            s += &format!(
                "<tr><td>{i}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.3}</td></tr>\n",
                esc(t.get("benchmark").and_then(Json::as_str).unwrap_or("?")),
                t.get("committed").and_then(Json::as_u64).unwrap_or(0),
                t.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                t.get("ipc").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
        s += "</tbody></table>\n";
        if let Some(ts) = result.get("timeseries") {
            let every = ts.get("every").and_then(Json::as_u64).unwrap_or(0);
            if every > 0 {
                let lines = series_lines(ts);
                if !lines.is_empty() {
                    s += &svg_chart(
                        "issue slots per epoch",
                        &format!("epoch ({every} cycles each)"),
                        &lines,
                    );
                }
            }
        }
    } else {
        if let Some(summary) = result.get("summary").and_then(Json::members) {
            if !summary.is_empty() {
                s += "<table class=\"kv\"><tbody>\n";
                for (k, v) in summary {
                    s += &format!(
                        "<tr><td>{}</td><td>{}</td></tr>\n",
                        esc(k),
                        esc(&v.as_f64().map_or_else(String::new, |f| format!("{f:.4}")))
                    );
                }
                s += "</tbody></table>\n";
            }
        }
        s += "<table><thead><tr><th>axis</th><th>value</th><th>mean efficiency</th>\
              </tr></thead><tbody>\n";
        for row in result.get("sweep").and_then(Json::as_array).unwrap_or(&[]) {
            s += &format!(
                "<tr><td>{}</td><td>{}</td><td>{:.4}</td></tr>\n",
                esc(row.get("path").and_then(Json::as_str).unwrap_or("?")),
                esc(&row.get("value").map(Json::encode).unwrap_or_default()),
                row.get("mean_eff").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
        s += "</tbody></table>\n";
    }
    s += "</section>\n";
    (title, s)
}

/// Dispatch-provenance section for an `rmt-cluster/v1` envelope: who won
/// each cell and the retry/steal story, then the merged result document
/// itself (rendered exactly like any other served result — it *is* one).
fn render_cluster(anchor: &str, file: &str, doc: &Json) -> (String, String) {
    let workers = doc.get("workers").and_then(Json::as_u64).unwrap_or(0);
    let cells = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    let metrics = doc.get("cluster").and_then(|c| c.get("metrics"));
    let counter = |name: &str| {
        metrics
            .and_then(|m| m.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let title = format!("cluster run: {workers} worker(s), {} cells", cells.len());
    let mut s = format!(
        "<section id=\"{anchor}\"><h2>{}</h2>\n\
         <p class=\"meta\">rmt-cluster envelope \
         <span class=\"file\">({})</span></p>\n",
        esc(&title),
        esc(file)
    );
    s += &format!(
        "<table class=\"kv\"><tbody>\n\
         <tr><td>request digest</td><td>{}</td></tr>\n\
         <tr><td>distinct units</td><td>{}</td></tr>\n\
         <tr><td>duplicate results</td><td>{}</td></tr>\n\
         <tr><td>peak in-flight</td><td>{}</td></tr>\n\
         </tbody></table>\n",
        esc(doc.get("digest").and_then(Json::as_str).unwrap_or("?")),
        counter("cluster/units"),
        counter("cluster/duplicate_results"),
        counter("cluster/peak_inflight"),
    );
    if workers > 0 {
        let addrs = doc
            .get("cluster")
            .and_then(|c| c.get("worker_addrs"))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        s += "<h3>Per-worker dispatch</h3>\n\
              <table><thead><tr><th>worker</th><th>address</th>\
              <th>cells won</th><th>cache hits</th><th>dispatched</th>\
              <th>retried</th><th>stolen</th><th>evictions</th>\
              </tr></thead><tbody>\n";
        for w in 0..workers as usize {
            let addr = addrs
                .get(w)
                .and_then(|a| a.as_str())
                .unwrap_or("?")
                .to_string();
            // Cells won (and how many were worker cache hits) come from
            // the provenance list, keyed by the winning worker's address.
            let won = cells
                .iter()
                .filter(|c| c.get("worker").and_then(Json::as_str) == Some(addr.as_str()));
            let hits = won
                .clone()
                .filter(|c| c.get("cache_hit").and_then(Json::as_bool) == Some(true))
                .count();
            let p = format!("cluster/worker{w}");
            s += &format!(
                "<tr><td>{w}</td><td>{}</td><td>{}</td><td>{hits}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&addr),
                won.count(),
                counter(&format!("{p}/dispatched")),
                counter(&format!("{p}/retried")),
                counter(&format!("{p}/stolen")),
                counter(&format!("{p}/evictions")),
            );
        }
        s += "</tbody></table>\n";
    }
    s += "</section>\n";
    if let Some(result) = doc.get("result") {
        let (_, rs) = render_service(&format!("{anchor}-result"), file, result);
        s += &rs;
    }
    (title, s)
}

const STYLE: &str = "\
body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;\
padding:0 1em;color:#1a1a1a;background:#fdfdfc}\
h1{border-bottom:2px solid #0072b2;padding-bottom:.2em}\
section{margin-bottom:3em}\
table{border-collapse:collapse;margin:1em 0;font-size:13px}\
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left;\
font-variant-numeric:tabular-nums}\
thead th{background:#eef3f7}\
tbody tr:nth-child(even){background:#f6f6f4}\
table.kv td:first-child{font-family:ui-monospace,monospace}\
td.chain{font-family:ui-monospace,monospace;font-size:12px}\
tr.detected td:nth-child(4){color:#006d2c;font-weight:600}\
tr.silent td:nth-child(4){color:#a50f15;font-weight:600}\
p.meta{color:#555;margin:.2em 0}\
span.file{font-family:ui-monospace,monospace;font-size:12px}\
nav ul{list-style:none;padding:0}\
nav li{display:inline-block;margin-right:1.2em}\
figure{margin:1em 0}\
figcaption{font-size:13px;color:#333;margin-bottom:.3em;\
font-family:ui-monospace,monospace}\
svg .frame{fill:none;stroke:#bbb}\
svg .lbl{font:11px system-ui,sans-serif;fill:#444}";

fn default_inputs() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir("results")
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .map(|p| p.to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// `(--out PATH, FILE...)`.
fn parse_args(mut argv: Args) -> Result<(String, Vec<String>), String> {
    let mut out = "results/report.html".to_string();
    let mut files = Vec::new();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--out" => out = argv.value(&a)?,
            _ if a.starts_with('-') => return Err(cli::unexpected(&a)),
            _ => files.push(a),
        }
    }
    Ok((out, files))
}

fn main() {
    let (out, mut files) = cli::run("usage: report [--out PATH] [FILE...]", parse_args);
    if files.is_empty() {
        files = default_inputs();
    }
    let mut sections = String::new();
    let mut nav = String::new();
    let mut rendered = 0usize;
    for (i, file) in files.iter().enumerate() {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("warning: skipping {file}: {e}");
                continue;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("warning: skipping {file}: invalid JSON: {e}");
                continue;
            }
        };
        let anchor = format!("doc{i}");
        let title;
        let schema = doc.get("schema").and_then(Json::as_str);
        if doc.get("table").is_some() {
            title = doc
                .get("title")
                .and_then(Json::as_str)
                .unwrap_or(file)
                .to_string();
            sections += &render_doc(&anchor, file, &doc);
        } else if schema == Some("rmt-cluster/v1") {
            let (t, s) = render_cluster(&anchor, file, &doc);
            title = t;
            sections += &s;
        } else if let Some(result) = service_result(&doc) {
            let (t, s) = render_service(&anchor, file, result);
            title = t;
            sections += &s;
        } else {
            eprintln!("warning: skipping {file}: not a figure or served-result document");
            continue;
        }
        nav += &format!("<li><a href=\"#{anchor}\">{}</a></li>\n", esc(&title));
        rendered += 1;
    }
    if rendered == 0 {
        eprintln!("error: no figure documents to render");
        std::process::exit(1);
    }
    let html = format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\n\
         <title>RMT results dashboard</title>\n<style>{STYLE}</style></head>\n\
         <body><h1>RMT results dashboard</h1>\n\
         <p class=\"meta\">Redundant multithreading reproduction — \
         machine-readable figure results rendered offline; every chart and \
         style is inline.</p>\n\
         <nav><ul>{nav}</ul></nav>\n{sections}</body></html>\n"
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(&out, &html).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "report: {rendered} document(s) rendered to {out} ({} bytes)",
        html.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_files_and_out_and_refuses_unknown_flags() {
        let parse = |args: &[&str]| parse_args(Args::new(args.iter().copied()));
        assert_eq!(
            parse(&["--out", "r.html", "a.json"]),
            Ok(("r.html".into(), vec!["a.json".into()]))
        );
        assert_eq!(parse(&[]).unwrap().0, "results/report.html");
        assert_eq!(
            parse(&["--bogus"]),
            Err("unexpected argument `--bogus`".into())
        );
        assert!(parse(&["--out"]).is_err());
    }
}
