"""parley: session protocols with assertions, projection, FSMs, and runtime monitoring."""

from .broker import Broker, BrokerError
from .endpoint import (
    FORWARDER,
    MONITOR,
    NONE,
    ConversationRuntime,
    Endpoint,
    make_invitation_config,
)
from .fsm import (
    CompileError,
    EmptyRecursionError,
    ExplosionGuard,
    FsmError,
    NestedFsm,
    NondeterminismError,
    UnsupportedNesting,
    compile,
    product_oracle,
    to_dot,
    trace_language,
)
from .monitor import (
    BuiltinLogicEngine,
    ExternalCommandEngine,
    LogicEngine,
    Monitor,
    MonitorVerdict,
)
from .parser import ParseError, parse_global, parse_local, parse_protocol
from .predicates import (
    CompiledPredicate,
    EvalError,
    PredicateSyntaxError,
    compile_predicate,
    evaluate,
)
from .printer import serialize
from .projection import ProjectionReport, ProjectionWarning, project, project_all
from .protocol import (
    Choice,
    Continue,
    End,
    END,
    GlobalProtocol,
    Interaction,
    LocalProtocol,
    MessageSignature,
    Parallel,
    PayloadField,
    Rec,
    Receive,
    Send,
    ValidationError,
    validate_global,
    validate_local,
)
from .store import ProtocolStore, local_ref
from .wire import (
    ConversationMessage,
    DuplicateRegistration,
    IncompleteConfig,
    InvitationConfig,
    InvitationEntry,
    NotJoined,
    RoleMismatch,
    SessionEnded,
    Timeout,
    TransportError,
    UnknownPeerRole,
    UnknownProtocol,
    WireError,
    decode_message,
    encode_message,
    load_invitation_config,
    parse_invitation_config,
)

__version__ = "0.1.0"
