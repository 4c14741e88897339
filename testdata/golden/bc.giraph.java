// Generated by the Green-Marl → Pregel compiler from procedure "bc_approx".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class BcApproxComputation extends BasicComputation<IntWritable, BcApproxValue, NullWritable, BcApproxMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, BcApproxValue, NullWritable> vertex, Iterable<BcApproxMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 0: { // in_nbr_send
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    BcApproxMessage m = new BcApproxMessage();
                    m.f0 = vertex.getId().get();
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                vertex.getValue().in_nbrs = collectSenderIds(messages);
                vertex.getValue().BC = 0.0;
                break;
            }
            case 6: { // state5
                int s = ((IntWritable) getAggregatedValue("s")).get();
                vertex.getValue().sigma = 0.0;
                vertex.getValue().delta = 0.0;
                if ((vertex.getId().get() == s)) {
                    vertex.getValue().sigma = 1.0;
                }
                vertex.getValue()._lev0 = Long.MAX_VALUE;
                break;
            }
            case 11: { // state11
                int _root3 = ((IntWritable) getAggregatedValue("_root3")).get();
                if ((vertex.getId().get() == _root3)) {
                    vertex.getValue()._lev0 = 0L;
                }
                break;
            }
            case 15: { // state14
                long _curr2 = ((LongWritable) getAggregatedValue("_curr2")).get();
                if ((vertex.getValue()._lev0 == _curr2)) {
                    vertex.getValue()._t13 = 0.0;
                }
                if ((vertex.getValue()._lev0 == (_curr2 - 1L))) {
                    for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                        BcApproxMessage m = new BcApproxMessage();
                        m.f0 = Double.doubleToLongBits(vertex.getValue().sigma);
                        sendMessage(e.getTargetVertexId(), m);
                    }
                }
                break;
            }
            case 17: { // state16_recv
                long _curr2 = ((LongWritable) getAggregatedValue("_curr2")).get();
                for (BcApproxMessage m : messages) {
                    if (m.type == 1) {
                        if ((vertex.getValue()._lev0 == _curr2)) {
                            vertex.getValue()._t13 += Double.longBitsToDouble(m.f0);
                        }
                    }
                }
                if ((vertex.getValue()._lev0 == _curr2)) {
                    vertex.getValue().sigma += vertex.getValue()._t13;
                }
                if ((vertex.getValue()._lev0 == _curr2)) {
                    for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                        BcApproxMessage m = new BcApproxMessage();
                        sendMessage(e.getTargetVertexId(), m);
                    }
                }
                break;
            }
            case 20: { // state19_recv
                long _curr2 = ((LongWritable) getAggregatedValue("_curr2")).get();
                for (BcApproxMessage m : messages) {
                    if (m.type == 2) {
                        if ((vertex.getValue()._lev0 == Long.MAX_VALUE)) {
                            vertex.getValue()._lev0 = Math.min(vertex.getValue()._lev0, (_curr2 + 1L));
                            aggregate("_fin1_&=", new BooleanWritable(false));
                        }
                    }
                }
                break;
            }
            case 26: { // state26
                long _curr2 = ((LongWritable) getAggregatedValue("_curr2")).get();
                if ((vertex.getValue()._lev0 == _curr2)) {
                    vertex.getValue()._t14 = 0.0;
                }
                if ((vertex.getValue()._lev0 == (_curr2 + 1L))) {
                    for (int i = 0; i < vertex.getValue().in_nbrs.length; i++) {
                        BcApproxMessage m = new BcApproxMessage();
                        m.f0 = Double.doubleToLongBits(vertex.getValue().sigma);
                        m.f1 = Double.doubleToLongBits((1.0 + vertex.getValue().delta));
                        sendMessage(new IntWritable(vertex.getValue().in_nbrs[i]), m);
                    }
                }
                break;
            }
            case 28: { // state27_recv
                long _curr2 = ((LongWritable) getAggregatedValue("_curr2")).get();
                for (BcApproxMessage m : messages) {
                    if (m.type == 3) {
                        if ((vertex.getValue()._lev0 == _curr2)) {
                            vertex.getValue()._t14 += ((vertex.getValue().sigma / Double.longBitsToDouble(m.f0)) * Double.longBitsToDouble(m.f1));
                        }
                    }
                }
                if ((vertex.getValue()._lev0 == _curr2)) {
                    vertex.getValue().delta = vertex.getValue()._t14;
                    vertex.getValue().BC += vertex.getValue().delta;
                }
                break;
            }
        }
    }
}

public class BcApproxMaster extends DefaultMasterCompute {
    int _state = 0;
    long K;
    long k;
    int s;
    int _root3;
    boolean _fin1;
    long _curr2;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("K", LongOverwriteAggregator.class);
        registerPersistentAggregator("k", LongOverwriteAggregator.class);
        registerPersistentAggregator("s", IntOverwriteAggregator.class);
        registerPersistentAggregator("_root3", IntOverwriteAggregator.class);
        registerPersistentAggregator("_fin1", BooleanOverwriteAggregator.class);
        registerPersistentAggregator("_curr2", LongOverwriteAggregator.class);
        registerAggregator("_fin1_&=", BooleanAndAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: { // vertex state "in_nbr_send"
                    setAggregatedValue("_state", new IntWritable(0));
                    _state = 1; return;
                }
                case 1: { // vertex state "in_nbr_collect"
                    setAggregatedValue("_state", new IntWritable(1));
                    _state = 2; return;
                }
                case 2: {
                    _state = 3; break;
                }
                case 3: {
                    k = 0L;
                    _state = 4; break;
                }
                case 4: {
                    _state = ((k < K)) ? 5 : 34; break;
                }
                case 5: {
                    s = pickRandomVertex();
                    _state = 6; break;
                }
                case 6: { // vertex state "state5"
                    setAggregatedValue("_state", new IntWritable(6));
                    setAggregatedValue("s", new IntWritable(s));
                    _state = 7; return;
                }
                case 7: {
                    _state = 8; break;
                }
                case 8: {
                    _state = 9; break;
                }
                case 9: {
                    _root3 = s;
                    _state = 10; break;
                }
                case 10: {
                    _state = 11; break;
                }
                case 11: { // vertex state "state11"
                    setAggregatedValue("_state", new IntWritable(11));
                    setAggregatedValue("_root3", new IntWritable(_root3));
                    _state = 12; return;
                }
                case 12: {
                    _fin1 = false;
                    _curr2 = 0L;
                    _state = 13; break;
                }
                case 13: {
                    _state = (!_fin1) ? 14 : 24; break;
                }
                case 14: {
                    _fin1 = true;
                    _state = 15; break;
                }
                case 15: { // vertex state "state14"
                    setAggregatedValue("_state", new IntWritable(15));
                    setAggregatedValue("_curr2", new LongWritable(_curr2));
                    _state = 16; return;
                }
                case 16: {
                    _state = 17; break;
                }
                case 17: { // vertex state "state16_recv"
                    setAggregatedValue("_state", new IntWritable(17));
                    setAggregatedValue("_curr2", new LongWritable(_curr2));
                    _state = 18; return;
                }
                case 18: {
                    _state = 19; break;
                }
                case 19: {
                    _state = 20; break;
                }
                case 20: { // vertex state "state19_recv"
                    setAggregatedValue("_state", new IntWritable(20));
                    setAggregatedValue("_curr2", new LongWritable(_curr2));
                    _state = 21; return;
                }
                case 21: {
                    _fin1 = ((BooleanWritable) getAggregatedValue("_fin1_&=")).get();
                    _state = 22; break;
                }
                case 22: {
                    _curr2 = (_curr2 + 1L);
                    _state = 23; break;
                }
                case 23: {
                    _state = 13; break;
                }
                case 24: {
                    _curr2 = (_curr2 - 1L);
                    _state = 25; break;
                }
                case 25: {
                    _state = ((_curr2 >= 0L)) ? 26 : 32; break;
                }
                case 26: { // vertex state "state26"
                    setAggregatedValue("_state", new IntWritable(26));
                    setAggregatedValue("_curr2", new LongWritable(_curr2));
                    _state = 27; return;
                }
                case 27: {
                    _state = 28; break;
                }
                case 28: { // vertex state "state27_recv"
                    setAggregatedValue("_state", new IntWritable(28));
                    setAggregatedValue("_curr2", new LongWritable(_curr2));
                    _state = 29; return;
                }
                case 29: {
                    _state = 30; break;
                }
                case 30: {
                    _curr2 = (_curr2 - 1L);
                    _state = 31; break;
                }
                case 31: {
                    _state = 25; break;
                }
                case 32: {
                    k = (k + 1L);
                    _state = 33; break;
                }
                case 33: {
                    _state = 4; break;
                }
                case 34: {
                    haltComputation(); return;
                }
            }
        }
    }
}

public class BcApproxValue implements Writable {
    public double BC;
    public double sigma;
    public double delta;
    public long _lev0;
    public double _t13;
    public double _t14;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeDouble(BC);
        out.writeDouble(sigma);
        out.writeDouble(delta);
        out.writeLong(_lev0);
        out.writeDouble(_t13);
        out.writeDouble(_t14);
    }
    public void readFields(DataInput in) throws IOException {
        BC = in.readDouble();
        sigma = in.readDouble();
        delta = in.readDouble();
        _lev0 = in.readLong();
        _t13 = in.readDouble();
        _t14 = in.readDouble();
    }
}

public class BcApproxMessage implements Writable {
    public byte type;
    public long f0;
    public long f1;
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        out.writeLong(f0);
        out.writeLong(f1);
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        f0 = in.readLong();
        f1 = in.readLong();
    }
}
