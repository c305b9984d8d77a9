//! The traced build path: every request of a grid replayed through the
//! layers' public entry points, with a span around each call.
//!
//! A [`Pipeline`]'s passes run inside `safe_tinyos`, out of reach of
//! spans recorded from outside the program. So the traced run performs
//! the same steps itself: the frontend compile once per app, then per
//! pass a lookup in a content-addressed memo keyed like the pass cache
//! (input-IR digest, canonical pass spec) that runs the layer call on a
//! miss, then the backend prepare and the link. Each pass is matched to
//! the layer call by its canonical spec, so a preset whose passes the
//! replay does not know is an error, never a silent substitution. The
//! benchmark checks the replay against the real service: images must be
//! byte-identical and the memo's per-pass hit/miss counts must equal
//! `BuildService::cache_stats()`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use backend::BackendOptions;
use ccured::{CureOptions, ErrorMode};
use cxprop::{CxpropOptions, InlineOptions};
use safe_tinyos::{
    ir_digest, BackendPass, Build, CurePass, CxpropPass, InlinePass, Metrics, Pass, Pipeline,
    PruneErrmsgPass,
};
use tcil::{CompileError, Program};
use tosapps::AppSpec;

use crate::trace::span;

/// One pass as a direct layer call.
#[derive(Clone)]
enum Call {
    Cure(CureOptions),
    Inline(InlineOptions),
    Cxprop(CxpropOptions),
    Prune,
    Backend(BackendOptions),
}

#[derive(Clone)]
struct Step {
    /// The pass name the cache counts under.
    name: &'static str,
    spec: String,
    call: Call,
}

/// Every pass configuration the replay can run, by canonical spec.
fn known_steps() -> Vec<Step> {
    let mut steps = Vec::new();
    for error_mode in [
        ErrorMode::VerboseRam,
        ErrorMode::VerboseRom,
        ErrorMode::Terse,
        ErrorMode::Flid,
    ] {
        for local_optimize in [true, false] {
            let options = CureOptions {
                error_mode,
                local_optimize,
                ..CureOptions::default()
            };
            steps.push(Step {
                name: "cure",
                spec: CurePass {
                    options: options.clone(),
                }
                .spec(),
                call: Call::Cure(options),
            });
        }
    }
    let inline = InlinePass::default();
    steps.push(Step {
        name: "inline",
        spec: inline.spec(),
        call: Call::Inline(inline.options.clone()),
    });
    let cxprop = CxpropPass::default();
    steps.push(Step {
        name: "cxprop",
        spec: cxprop.spec(),
        call: Call::Cxprop(cxprop.options.clone()),
    });
    steps.push(Step {
        name: "prune",
        spec: PruneErrmsgPass.spec(),
        call: Call::Prune,
    });
    let backend = BackendPass::default();
    steps.push(Step {
        name: "backend",
        spec: backend.spec(),
        call: Call::Backend(backend.options.clone()),
    });
    steps
}

/// A pipeline as the list of layer calls the replay makes.
#[derive(Clone)]
pub struct Plan {
    steps: Vec<Step>,
}

impl Plan {
    /// Maps every pass of `pipeline` to the layer call with the same
    /// name and canonical spec.
    pub fn of(pipeline: &Pipeline) -> Result<Plan, String> {
        let known = known_steps();
        let steps = pipeline
            .passes()
            .iter()
            .map(|pass| {
                known
                    .iter()
                    .find(|s| s.name == pass.name() && s.spec == pass.spec() && pass.cacheable())
                    .cloned()
                    .ok_or_else(|| {
                        format!(
                            "pipeline {}: no replay for pass `{}`",
                            pipeline.name(),
                            pass.spec()
                        )
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Plan { steps })
    }
}

#[derive(Clone)]
struct Entry {
    program: Arc<Program>,
    digest: u64,
    bytes: usize,
    prepared: Option<Arc<Program>>,
}

type Slot = Arc<OnceLock<Result<Entry, CompileError>>>;

/// Per-pass memo counters, counted the way the pass cache counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub bytes: u64,
}

/// Work the layers reported while the replay ran them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub compiles: u64,
    pub checks_inserted: u64,
    pub checks_removed: u64,
    pub inlined: u64,
    pub links: u64,
}

#[derive(Default)]
struct FrontendState {
    frontend: Option<nesc::Frontend>,
    programs: HashMap<&'static str, Arc<Program>>,
}

/// One replayed build service: frontend artifacts and pass outputs are
/// shared by every build made through it, like one `BuildService`.
pub struct Replay {
    sources: nesc::SourceSet,
    frontend: Mutex<FrontendState>,
    memo: Mutex<HashMap<(u64, String), Slot>>,
    counters: Mutex<BTreeMap<&'static str, Counters>>,
    work: Mutex<Work>,
}

impl Replay {
    pub fn new() -> Replay {
        Replay {
            sources: tosapps::source_set(),
            frontend: Mutex::new(FrontendState::default()),
            memo: Mutex::new(HashMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            work: Mutex::new(Work::default()),
        }
    }

    pub fn counters(&self) -> BTreeMap<&'static str, Counters> {
        self.counters.lock().expect("counter lock").clone()
    }

    pub fn work(&self) -> Work {
        *self.work.lock().expect("work lock")
    }

    /// The lowered program for `spec`, compiling it on first use. The
    /// lock is held across the compile, as the build session does.
    fn lowered(&self, spec: &AppSpec) -> Result<Arc<Program>, CompileError> {
        let mut state = self.frontend.lock().expect("frontend lock");
        if let Some(p) = state.programs.get(spec.config) {
            return Ok(p.clone());
        }
        if state.frontend.is_none() {
            let _s = span("nesc.parse");
            state.frontend = Some(nesc::Frontend::new(&self.sources)?);
        }
        let out = {
            let _s = span("nesc.compile");
            state
                .frontend
                .as_ref()
                .expect("parsed above")
                .compile(spec.config)?
        };
        self.work.lock().expect("work lock").compiles += 1;
        let program = Arc::new(out.program);
        state.programs.insert(spec.config, program.clone());
        Ok(program)
    }

    fn lookup(
        &self,
        pass: &'static str,
        digest: u64,
        spec: &str,
        compute: impl FnOnce() -> Result<Entry, CompileError>,
    ) -> Result<Entry, CompileError> {
        let _s = span("cache.lookup");
        let slot: Slot = self
            .memo
            .lock()
            .expect("memo lock")
            .entry((digest, spec.to_string()))
            .or_default()
            .clone();
        let mut computed = false;
        let out = slot.get_or_init(|| {
            computed = true;
            compute()
        });
        {
            let mut counters = self.counters.lock().expect("counter lock");
            let c = counters.entry(pass).or_default();
            if computed {
                c.misses += 1;
                c.bytes += out.as_ref().map_or(0, |e| e.bytes as u64);
            } else {
                c.hits += 1;
            }
        }
        out.clone()
    }

    fn run_step(&self, step: &Step, input: &Program) -> Result<Entry, CompileError> {
        let mut program = input.clone();
        let mut prepared = None;
        match &step.call {
            Call::Cure(options) => {
                let stats = {
                    let _s = span("ccured.cure");
                    ccured::cure(&mut program, options)?
                };
                self.work.lock().expect("work lock").checks_inserted +=
                    stats.checks_inserted as u64;
            }
            Call::Inline(options) => {
                let inlined = {
                    let _s = span("cxprop.inline");
                    cxprop::inline::run(&mut program, options)
                };
                self.work.lock().expect("work lock").inlined += inlined as u64;
            }
            Call::Cxprop(options) => {
                let stats = {
                    let _s = span("cxprop.optimize");
                    cxprop::optimize(&mut program, options)
                };
                let mut work = self.work.lock().expect("work lock");
                work.checks_removed += stats.engine.checks_removed as u64;
                work.inlined += stats.inlined as u64;
            }
            Call::Prune => {
                let _s = span("ccured.prune");
                ccured::errmsg::prune_unused_messages(&mut program);
            }
            Call::Backend(options) => {
                let _s = span("backend.prepare");
                prepared = Some(Arc::new(backend::prepare(&program, options)));
            }
        }
        let (digest, bytes) = {
            let _s = span("cache.digest");
            ir_digest(&program)
        };
        Ok(Entry {
            program: Arc::new(program),
            digest,
            bytes,
            prepared,
        })
    }

    /// Builds `spec` under `plan` and links it. Like a cached pipeline
    /// build, the result carries its own copy of the final program.
    pub fn build(&self, spec: &AppSpec, plan: &Plan) -> Result<Build, CompileError> {
        let lowered = self.lowered(spec)?;
        let mut state = Arc::new(Program::clone(&lowered));
        let (mut digest, mut bytes) = {
            let _s = span("cache.digest");
            ir_digest(&state)
        };
        let mut prepared = None;
        let mut backend_options = None;
        for step in &plan.steps {
            let input = state.clone();
            let entry = self.lookup(step.name, digest, &step.spec, || {
                self.run_step(step, &input)
            })?;
            state = entry.program;
            digest = entry.digest;
            bytes = entry.bytes;
            prepared = entry.prepared;
            if let Call::Backend(options) = &step.call {
                backend_options = Some(options.clone());
            }
        }
        let prepared = match prepared {
            Some(p) => p,
            None => {
                let options = backend_options.unwrap_or_default();
                let spec = BackendPass {
                    options: options.clone(),
                }
                .spec();
                let entry = self.lookup("backend", digest, &spec, || {
                    let prepared = {
                        let _s = span("backend.prepare");
                        backend::prepare(&state, &options)
                    };
                    Ok(Entry {
                        program: state.clone(),
                        digest,
                        bytes,
                        prepared: Some(Arc::new(prepared)),
                    })
                })?;
                entry
                    .prepared
                    .expect("backend entries hold a prepared program")
            }
        };
        let image = {
            let _s = span("backend.link");
            backend::link(&prepared, spec.platform.clone())?
        };
        self.work.lock().expect("work lock").links += 1;
        Ok(Build::new(
            image,
            Metrics::default(),
            Program::clone(&state),
        ))
    }
}
